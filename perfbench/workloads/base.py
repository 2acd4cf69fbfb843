"""What the harness needs from a workload."""

from __future__ import annotations


def scaled(count: int, scale: float, floor: int = 1) -> int:
    """A fixed operation count at ``scale`` (1.0 = the reference size)."""
    return max(floor, round(count * scale))


def disk_live_bytes(disk, roots: list[str]) -> int:
    """Bytes currently stored under ``roots`` of a SimDisk, walked
    through its public directory API.  Workloads give their components
    relative data directories: ``listdir`` cannot descend into the empty
    path component an absolute one would leave behind the node name."""
    total = 0
    pending = list(roots)
    while pending:
        path = pending.pop()
        if disk.exists(path):
            total += disk.getsize(path)
        else:
            pending.extend(f"{path}/{name}" for name in disk.listdir(path)
                           if name)
    return total


class Workload:
    """One seeded, fixed-size sequence of driver steps.

    ``__init__`` generates the inputs from the seed (the program under
    test only ever sees generated inputs); :meth:`setup` builds the
    cluster and preloads it; the harness then calls :meth:`step` for
    ``i`` in ``range(self.steps)``, closed loop.  Steps append sim-clock
    latency or freshness samples (ms) to :attr:`sim_ms` and keep
    :attr:`ops`, :attr:`attempted` and :attr:`failed` current.
    """

    name = ""

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.scale = scale
        self.steps = 0
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.sim_ms: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Drop the world built by :meth:`setup` (set-up is repeated)."""

    def prepare(self, i: int) -> None:
        """Untimed input generation just before step ``i``."""

    def step(self, i: int) -> None:
        raise NotImplementedError

    def recover(self) -> None:
        """Crash every stateful node and restart it until it serves."""
        raise NotImplementedError

    def check(self) -> list[str]:
        """Untimed correctness check; returns the failures found."""
        raise NotImplementedError

    def counts(self) -> dict[str, float]:
        """Per-layer counts read from public attributes and registries,
        keyed by per-layer metric name, plus ``user_bytes`` (payload
        bytes accepted) and any helper counts the harness divides by."""
        return {}
