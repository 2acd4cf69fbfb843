"""A deterministic simulated disk with injectable storage faults.

:class:`~repro.simnet.network.SimNetwork` gave the reproduction the
*network* half of the chaos story: crashes, partitions, transient
errors.  This module supplies the *storage* half.  Every durable
component (Kafka partition logs, Voldemort's log-structured and
read-only engines and slop store, Espresso commit logs, the Databus
bootstrap store) writes through a :class:`Disk`, of which there are
two implementations:

* :class:`LocalDisk` — a thin pass-through to the real filesystem, for
  a caller that names it (no component defaults to it);
* :class:`SimDisk` — a fully in-memory filesystem with an explicit
  ``fsync`` boundary and injectable faults: **lost unsynced writes** on
  crash (the default crash semantic — whatever was written but never
  fsynced vanishes, like an OS page cache on power loss), **torn
  writes** (a crash preserves only a prefix of the unsynced tail, cut
  at an arbitrary byte offset), and **bit flips** (a byte of a stored
  file is silently corrupted, to be caught by CRC validation at
  recovery or read time).

Determinism contract: fault byte offsets are drawn from a seeded
``random.Random``; timestamps come from an injected
:class:`~repro.common.clock.Clock`; and every disk event can be traced
through the same ``start_trace`` / ``trace_bytes`` machinery as the
network, so a seeded fault scenario replays byte-identically.

Each file is one buffer plus a durability watermark (see
:class:`_FileState`): ``fsync`` moves the watermark and copies nothing,
a crash cuts the buffer back to it.  The pre-image of durable bytes is
saved only when a write lands below the watermark, which no durable
component does on its hot path.

Files are namespaced per node (``disk.scope("node-0")``) so one
:class:`SimDisk` can back a whole cluster while crashes stay surgical:
``crash_node`` drops one node's unsynced bytes and invalidates its open
handles without touching its peers.

The :class:`Disk` / :class:`DiskFile` protocols and the real-filesystem
:class:`LocalDisk` live in :mod:`repro.common.storage` (the layering
contract keeps ``common`` at the bottom of the stack); they are
re-exported here because every durable component historically imported
them from this module.
"""

from __future__ import annotations

import io
import os
import random

from repro.common.clock import Clock, SimClock
from repro.common.errors import ConfigurationError, FileMissingError
from repro.common.storage import (  # noqa: F401  (compat re-exports)
    Disk,
    DiskFile,
    LocalDisk,
    _LocalFile,
)

__all__ = ["Disk", "DiskFile", "LocalDisk", "DiskScope", "SimDisk"]


# -- simulated filesystem ----------------------------------------------------


class _FileState:
    """One simulated file: a single buffer plus a durability watermark.

    ``data`` is what readers (and the page cache) see.  The *durable
    image* — what a crash preserves — is ``mark`` bytes long, and as
    long as the file only grows between fsyncs it is simply
    ``data[:mark]``: ``fsync`` moves ``mark`` to ``len(data)`` and
    copies nothing, so a durable append costs the bytes it wrote and
    not the size of the file — the property an append-only log is
    built on.

    Three mutations can land *below* the watermark: ``truncate``, a
    ``"wb"`` reopen and a seek-and-overwrite.  Each calls
    :meth:`save_below` first, which keeps the pre-image of the durable
    bytes from the lowest offset touched: ``pre`` holds durable bytes
    ``[mark - len(pre), mark)``, the durable image is
    ``data[:mark - len(pre)] + pre``, and ``len(data) >= mark -
    len(pre)`` always.  The next fsync drops the pre-image; a crash
    puts it back.
    """

    __slots__ = ("data", "mark", "pre")

    def __init__(self):
        self.data = bytearray()   # what readers (and the page cache) see
        self.mark = 0             # length of the image a crash preserves
        self.pre = b""            # durable bytes that data no longer holds

    @property
    def unsynced_bytes(self) -> int:
        return max(0, len(self.data) - self.mark)

    def save_below(self, offset: int) -> None:
        """``data`` is about to change at ``offset`` and beyond: keep
        the durable bytes that change would destroy."""
        shared = self.mark - len(self.pre)
        if offset < shared:
            with memoryview(self.data) as view:
                self.pre = bytes(view[offset:shared]) + self.pre

    def sync(self) -> None:
        """Everything written so far is durable."""
        self.mark = len(self.data)
        self.pre = b""

    def revert(self, keep: int = 0) -> None:
        """Power cut: back to the durable image, plus the first ``keep``
        at-risk bytes (a torn write), all of which is then durable."""
        data = self.data
        if self.pre:
            torn = data[self.mark:self.mark + keep]
            data[self.mark - len(self.pre):] = self.pre + torn
        else:
            del data[self.mark + keep:]
        self.sync()


class _SimFile(DiskFile):
    """A handle onto a :class:`_FileState`; invalidated by node crash."""

    def __init__(self, disk: "SimDisk", path: str, state: _FileState,
                 readable: bool, writable: bool, append: bool):
        self._disk = disk
        self._path = path
        self._state = state
        self._readable = readable
        self._writable = writable
        self._append = append
        self._pos = len(state.data) if append else 0
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError(f"I/O on closed simulated file {self._path!r}")

    def read(self, size: int = -1) -> bytes:
        self._check_open()
        if not self._readable:
            raise io.UnsupportedOperation("file not open for reading")
        data = self._state.data
        end = len(data) if size < 0 else min(len(data), self._pos + size)
        out = bytes(memoryview(data)[self._pos:end])  # one copy, not two
        self._pos = end
        return out

    def write(self, data: bytes) -> int:
        self._check_open()
        if not self._writable:
            raise io.UnsupportedOperation("file not open for writing")
        buf = self._state.data
        pos = len(buf) if self._append else self._pos
        end = pos + len(data)
        if pos >= len(buf):
            # the append every durable file makes; never below the mark
            if pos > len(buf):
                buf.extend(bytes(pos - len(buf)))
            buf.extend(data)
        else:
            self._state.save_below(pos)
            buf[pos:end] = data
        disk = self._disk
        disk.writes += 1
        if disk.trace is not None:
            disk._record("write", self._path, str(pos), len(data))
        self._pos = end
        return len(data)

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        self._check_open()
        if whence == os.SEEK_SET:
            self._pos = offset
        elif whence == os.SEEK_CUR:
            self._pos += offset
        elif whence == os.SEEK_END:
            self._pos = len(self._state.data) + offset
        else:
            raise ValueError(f"bad whence {whence}")
        return self._pos

    def tell(self) -> int:
        self._check_open()
        return self._pos

    def truncate(self, size: int) -> int:
        self._check_open()
        if not self._writable:
            raise io.UnsupportedOperation("file not open for writing")
        self._state.save_below(size)
        del self._state.data[size:]
        self._pos = min(self._pos, size)
        self._disk._record("truncate", self._path, "", size)
        return size

    def flush(self) -> None:
        # writes land in the simulated page cache immediately; only
        # fsync moves the durability line
        self._check_open()

    def fsync(self) -> None:
        self._check_open()
        self._state.sync()
        self._disk.fsyncs += 1
        self._disk._record("fsync", self._path, "", self._state.mark)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._disk._forget(self)

    @property
    def closed(self) -> bool:
        return self._closed


class DiskScope(Disk):
    """A per-node view of a :class:`SimDisk`: every path is prefixed
    with the node name, so components address files exactly as they
    would on a private filesystem."""

    def __init__(self, disk: "SimDisk", node: str):
        self.disk = disk
        self.node = node

    def _abs(self, path: str) -> str:
        return f"{self.node}/{path}"

    def open(self, path: str, mode: str = "rb") -> DiskFile:
        return self.disk.open(self._abs(path), mode)

    def exists(self, path: str) -> bool:
        return self.disk.exists(self._abs(path))

    def listdir(self, path: str) -> list[str]:
        return self.disk.listdir(self._abs(path))

    def getsize(self, path: str) -> int:
        return self.disk.getsize(self._abs(path))

    def remove(self, path: str) -> None:
        self.disk.remove(self._abs(path))

    def replace(self, src: str, dst: str) -> None:
        self.disk.replace(self._abs(src), self._abs(dst))

    def makedirs(self, path: str) -> None:
        self.disk.makedirs(self._abs(path))


class SimDisk(Disk):
    """The cluster-wide simulated filesystem with fault injection.

    Paths are ``node/relative/file`` strings; :meth:`scope` hands a
    component a per-node view.  All fault decisions that need
    randomness (a torn write's cut point, a bit flip's target byte)
    come from the seeded RNG, so a fault scenario is a pure function of
    ``(seed, script)``.
    """

    def __init__(self, clock: Clock | None = None, seed: int = 0):
        self.clock = clock if clock is not None else SimClock()
        self.rng = random.Random(seed)
        self._files: dict[str, _FileState] = {}
        self._dirs: set[str] = set()
        self._handles: dict[str, list[_SimFile]] = {}
        # armed torn-write faults: node -> (path-or-None, keep_bytes-or-None)
        self._torn: dict[str, tuple[str | None, int | None]] = {}
        self.writes = 0
        self.fsyncs = 0
        self.crashes = 0
        self.bytes_lost = 0
        self.trace: list[tuple] | None = None

    # -- event tracing ----------------------------------------------------

    def start_trace(self) -> None:
        """Record every disk event from now on; same contract as
        :meth:`SimNetwork.start_trace` — two runs of a seeded fault
        scenario must produce byte-identical traces."""
        self.trace = []

    def _record(self, kind: str, path: str, detail: str, value: int) -> None:
        if self.trace is not None:
            self.trace.append(
                (kind, round(self.clock.now(), 9), path, detail, value))

    def trace_bytes(self) -> bytes:
        """The trace as canonical bytes (one ``repr`` line per event)."""
        if self.trace is None:
            raise ConfigurationError(
                "tracing is not enabled; call start_trace()")
        return "\n".join(repr(event) for event in self.trace).encode()

    # -- open-handle table -----------------------------------------------

    def _forget(self, handle: _SimFile) -> None:
        """A handle closed itself: only live handles stay in the table,
        so a fetch loop opening one reader per call leaves nothing."""
        handles = self._handles.get(handle._path)
        if handles is not None:  # None: the whole entry is being closed
            handles.remove(handle)
            if not handles:
                del self._handles[handle._path]

    def _close_handles(self, path: str) -> None:
        for handle in self._handles.pop(path, ()):
            handle.close()

    # -- Disk protocol ----------------------------------------------------

    def scope(self, node: str) -> DiskScope:
        return DiskScope(self, node)

    def open(self, path: str, mode: str = "rb") -> DiskFile:
        if mode not in ("rb", "ab", "ab+", "wb", "rb+"):
            raise ConfigurationError(f"unsupported mode {mode!r}")
        state = self._files.get(path)
        if state is None:
            if mode == "rb":
                raise FileMissingError(path)
            state = _FileState()
            self._files[path] = state
            parent = path.rsplit("/", 1)[0] if "/" in path else ""
            self._dirs.add(parent)
        if mode == "wb":
            state.save_below(0)
            state.data.clear()
        handle = _SimFile(
            self, path, state,
            readable=mode in ("rb", "ab+", "rb+"),
            writable=mode != "rb",
            append=mode in ("ab", "ab+"))
        self._handles.setdefault(path, []).append(handle)
        self._record("open", path, mode, len(state.data))
        return handle

    def exists(self, path: str) -> bool:
        return path in self._files

    def listdir(self, path: str) -> list[str]:
        prefix = path.rstrip("/") + "/"
        names = {p[len(prefix):].split("/", 1)[0]
                 for p in self._files if p.startswith(prefix)}
        return sorted(names)

    def getsize(self, path: str) -> int:
        try:
            return len(self._files[path].data)
        except KeyError:
            raise FileMissingError(path) from None

    def remove(self, path: str) -> None:
        if path not in self._files:
            raise FileMissingError(path)
        self._close_handles(path)
        del self._files[path]
        self._record("remove", path, "", 0)

    def replace(self, src: str, dst: str) -> None:
        """Atomic rename; modeled as immediately durable (a real
        implementation would fsync the directory)."""
        if src not in self._files:
            raise FileMissingError(src)
        self._close_handles(dst)
        state = self._files.pop(src)
        state.sync()
        self._files[dst] = state
        moved = self._handles.pop(src, None)
        if moved:
            self._handles[dst] = moved
            for handle in moved:
                handle._path = dst
        self._record("replace", src, dst, len(state.data))

    def makedirs(self, path: str) -> None:
        self._dirs.add(path.rstrip("/"))

    # -- fault injection --------------------------------------------------

    def _node_paths(self, node: str) -> list[str]:
        prefix = node + "/"
        return sorted(p for p in self._files if p.startswith(prefix))

    def unsynced_bytes(self, node: str) -> int:
        """Bytes currently at risk (written but not fsynced) on a node."""
        return sum(self._files[p].unsynced_bytes for p in self._node_paths(node))

    def arm_torn_write(self, node: str, path: str | None = None,
                       keep_bytes: int | None = None) -> None:
        """Arm a torn write for ``node``'s next crash: instead of losing
        its whole unsynced tail, the matched file keeps a *prefix* of it
        — ``keep_bytes`` long, or a seeded-random cut if None — leaving
        a partial frame for recovery to detect and truncate.

        ``path`` is node-relative; None means "the file with the most
        unsynced bytes at crash time".
        """
        self._torn[node] = (path, keep_bytes)

    def flip_bit(self, node: str, path: str, offset: int | None = None,
                 bit: int | None = None) -> int:
        """Silently corrupt one stored byte (media corruption).  The
        flip hits both the live bytes and the durable image (the same
        byte of ``data`` unless a pre-image covers it), so it survives
        crashes; CRC validation must catch it.  Returns the corrupted
        byte offset."""
        full = f"{node}/{path}"
        try:
            state = self._files[full]
        except KeyError:
            raise FileMissingError(full) from None
        if not state.data:
            raise ConfigurationError(f"cannot flip a bit in empty {full!r}")
        if offset is None:
            offset = self.rng.randrange(len(state.data))
        if bit is None:
            bit = self.rng.randrange(8)
        state.data[offset] ^= 1 << bit
        saved = offset - (state.mark - len(state.pre))
        if 0 <= saved < len(state.pre):
            pre = bytearray(state.pre)
            pre[saved] ^= 1 << bit
            state.pre = bytes(pre)
        self._record("flip", full, f"bit={bit}", offset)
        return offset

    def crash_node(self, node: str) -> int:
        """Power-cut one node: every file drops what lies beyond its
        durability watermark (less an armed torn prefix), and every
        open handle dies.
        Returns the number of bytes lost."""
        torn = self._torn.pop(node, None)
        torn_target: str | None = None
        torn_keep: int | None = None
        if torn is not None:
            torn_path, torn_keep = torn
            if torn_path is not None:
                torn_target = f"{node}/{torn_path}"
            else:
                # the file with the most at-risk bytes takes the tear
                candidates = [p for p in self._node_paths(node)
                              if self._files[p].unsynced_bytes > 0]
                if candidates:
                    torn_target = max(
                        candidates,
                        key=lambda p: (self._files[p].unsynced_bytes, p))
        lost = 0
        for path in self._node_paths(node):
            state = self._files[path]
            at_risk = state.unsynced_bytes
            keep = 0
            if path == torn_target and at_risk:
                cut = torn_keep if torn_keep is not None \
                    else self.rng.randrange(1, at_risk + 1)
                keep = min(cut, at_risk)
                self._record("torn", path, "", keep)
            # what a power cut leaves on the media is durable: a second
            # crash cannot un-write the torn prefix
            state.revert(keep)
            lost += at_risk - keep
            self._close_handles(path)
        self.crashes += 1
        self.bytes_lost += lost
        self._record("crash", node, "", lost)
        return lost

    def restart_node(self, node: str) -> None:
        """Bookkeeping marker: the node is booting from its surviving
        files.  Recorded in the trace so fault scenarios replay with
        their full kill/restart schedule visible."""
        self._record("restart", node, "", 0)
