"""Spans recorded from the benchmark's own files.

The traced run wraps the public entry points of every layer (see
:mod:`perfbench.layers`) with a timing shim.  Nothing under ``src/``
knows it is being measured: class methods are patched on the class,
module-level functions are patched in *every* ``repro`` module that
bound the name with ``from … import``, and everything is restored on
exit.  The untraced run must execute with zero wrappers installed;
:func:`installed_wrappers` is what the harness asserts on.

Every wrapped call is accumulated (calls, self time, inclusive time)
per entry point.  Self time is a call's duration minus the duration of
the wrapped calls made inside it, so the self times of all layers plus
the driver's own add up to the traced wall time.  Individual span
records ``(id, parent, entry, start_ns, end_ns, op)`` are kept only for
a deterministic sample of driver steps, so the span file stays small
while the aggregates cover every call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from collections import defaultdict
from typing import Callable

#: (owner, attribute name, original attribute) of every live patch
_INSTALLED: list[tuple[object, str, object]] = []

DRIVER = "bench.driver"


def installed_wrappers() -> int:
    """Number of patches currently live in the process."""
    return len(_INSTALLED)


class Tracer:
    """Aggregates wrapped calls; one instance per traced pass."""

    def __init__(self, observers: dict[str, Callable] | None = None):
        self.entries: list[tuple[str, str]] = [(DRIVER, "step")]
        self.calls = [0]
        self.self_ns = [0]
        self.total_ns = [0]
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.missing: list[str] = []
        #: named accumulators fed by observers (the "further counts")
        self.acc: dict[str, float] = defaultdict(float)
        self._observers = observers or {}
        # the bottom frame absorbs wrapped calls made outside any driver
        # step (set-up, recovery, checks), so every call has a parent
        self._stack: list[list[int]] = [[0, 0]]
        self._keep = False
        self._next_id = 0
        self._op = -1
        self._sample_every = 1

    # -- installation -----------------------------------------------------

    def install(self, layers: dict[str, list[str]]) -> None:
        """Patch every target of every layer.

        A target is ``module:Class.*`` (all public methods),
        ``module:Class.method`` or ``module:function``.  Targets that no
        longer exist are listed in :attr:`missing` rather than raising,
        so a rename under ``src/`` degrades coverage visibly instead of
        breaking the benchmark.
        """
        if _INSTALLED:
            raise RuntimeError("wrappers are already installed")
        for layer, targets in layers.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.missing.append(target)
                    continue
                owner_name, _, attr = path.partition(".")
                if not attr:
                    self._patch_function(layer, module, owner_name, target)
                    continue
                cls = getattr(module, owner_name, None)
                if not inspect.isclass(cls):
                    self.missing.append(target)
                elif attr == "*":
                    for name in [n for n, v in vars(cls).items()
                                 if not n.startswith("_")]:
                        self._patch_method(layer, cls, name, target, True)
                else:
                    self._patch_method(layer, cls, attr, target, False)

    def _patch_method(self, layer: str, cls: type, name: str, target: str,
                      from_star: bool) -> None:
        raw = vars(cls).get(name)
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        if not isinstance(fn, types.FunctionType) or \
                inspect.isgeneratorfunction(fn):
            # properties, classmethods and generators are not wrapped: a
            # generator's work happens in its consumer's frame
            if not from_star:
                self.missing.append(target)
            return
        wrapped = self._wrap(fn, layer, f"{cls.__name__}.{name}")
        _INSTALLED.append((cls, name, raw))
        setattr(cls, name, staticmethod(wrapped) if static else wrapped)

    def _patch_function(self, layer: str, module, name: str,
                        target: str) -> None:
        fn = getattr(module, name, None)
        if not isinstance(fn, types.FunctionType) or \
                inspect.isgeneratorfunction(fn):
            self.missing.append(target)
            return
        wrapped = self._wrap(fn, layer, name)
        # the name is bound by ``from … import`` in other modules; patch
        # every repro module that holds this exact function object
        for other in list(sys.modules.values()):
            if other is None or \
                    not getattr(other, "__name__", "").startswith("repro"):
                continue
            for bound, value in list(vars(other).items()):
                if value is fn:
                    _INSTALLED.append((other, bound, fn))
                    setattr(other, bound, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while _INSTALLED:
            owner, name, original = _INSTALLED.pop()
            setattr(owner, name, original)

    # -- the shim ---------------------------------------------------------

    def _wrap(self, fn, layer: str, label: str):
        index = len(self.entries)
        self.entries.append((layer, label))
        self.calls.append(0)
        self.self_ns.append(0)
        self.total_ns.append(0)
        observe = self._observers.get(label)
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        stack, spans, acc = self._stack, self.spans, self.acc
        now = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0, 0]          # child ns, span id (0 = not kept)
            if tracer._keep:
                tracer._next_id += 1
                frame[1] = tracer._next_id
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                dt = t1 - t0
                parent = stack[-1]
                parent[0] += dt
                calls[index] += 1
                self_ns[index] += dt - frame[0]
                total_ns[index] += dt
                if frame[1]:
                    spans.append((frame[1], parent[1], index, t0, t1,
                                  tracer._op))
            if observe is not None:
                observe(acc, args, result, dt)
            return result

        return wrapper

    # -- driver steps -----------------------------------------------------

    def sample_every(self, stride: int) -> None:
        """Keep span records for every ``stride``-th driver step."""
        self._sample_every = max(1, stride)

    def reset(self) -> None:
        """Forget everything accumulated so far (set-up is not part of
        the measured phase); the installed wrappers keep working."""
        for series in (self.calls, self.self_ns, self.total_ns):
            series[:] = [0] * len(series)
        self.acc.clear()
        del self.spans[:]

    def begin(self, op: int) -> None:
        """Open the root span of one driver step."""
        self._op = op
        self._keep = op % self._sample_every == 0
        frame = [0, 0]
        if self._keep:
            self._next_id += 1
            frame[1] = self._next_id
        self._stack.append(frame)
        frame.append(time.perf_counter_ns())

    def end(self) -> None:
        t1 = time.perf_counter_ns()
        frame = self._stack.pop()
        dt = t1 - frame[2]
        self.calls[0] += 1
        self.self_ns[0] += dt - frame[0]
        self.total_ns[0] += dt
        if frame[1]:
            self.spans.append((frame[1], 0, 0, frame[2], t1, self._op))
        self._keep = False

    # -- results ----------------------------------------------------------

    def by_layer(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls": n, "self_s": s}}`` over every entry."""
        out: dict[str, dict[str, float]] = {}
        for (layer, _), calls, self_ns in zip(self.entries, self.calls,
                                              self.self_ns):
            row = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += calls
            row["self_s"] += self_ns / 1e9
        return out

    def by_label(self) -> dict[str, tuple[int, float, float]]:
        """``{label: (calls, self seconds, inclusive seconds)}``; labels
        that were never wrapped read as zeros."""
        out: dict[str, tuple[int, float, float]] = defaultdict(
            lambda: (0, 0.0, 0.0))
        for (_, label), calls, self_ns, total_ns in zip(
                self.entries, self.calls, self.self_ns, self.total_ns):
            seen = out[label]
            out[label] = (seen[0] + calls, seen[1] + self_ns / 1e9,
                          seen[2] + total_ns / 1e9)
        return out

    def span_records(self) -> list[dict]:
        """The kept spans as JSON-ready dicts (times relative to the
        first kept span, in ns)."""
        if not self.spans:
            return []
        origin = min(span[3] for span in self.spans)
        return [{"id": sid, "parent": parent,
                 "layer": self.entries[index][0],
                 "name": self.entries[index][1],
                 "start_ns": start - origin, "end_ns": end - origin,
                 "op": op}
                for sid, parent, index, start, end, op in self.spans]
