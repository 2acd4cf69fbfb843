"""SimDisk's watermark representation against the two-image model it
replaced, and the cost the replacement exists to remove.

``SimDisk`` keeps one buffer per file plus a durability watermark and a
lazily saved pre-image (DESIGN.md §9.1).  The model below is the
implementation that was deleted — every file holds *two* full images,
``data`` and ``synced``, and ``fsync`` copies one onto the other — kept
here, and only here, as the oracle: it is slow and obviously right.  A
seeded random walk drives both through every operation of the public
surface and compares everything observable after every step.
"""

import io
import os
import random
import tracemalloc

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigurationError, FileMissingError
from repro.simnet.disk import SimDisk


# -- the reference model: two images per file --------------------------------


class _RefState:
    def __init__(self):
        self.data = bytearray()   # what readers see
        self.synced = b""         # what survives a crash

    @property
    def unsynced_bytes(self):
        return max(0, len(self.data) - len(self.synced))


class _RefFile:
    def __init__(self, disk, path, state, readable, writable, append):
        self._disk = disk
        self._path = path
        self._state = state
        self._readable = readable
        self._writable = writable
        self._append = append
        self._pos = len(state.data) if append else 0
        self.closed = False

    def _check_open(self):
        if self.closed:
            raise ValueError(f"I/O on closed simulated file {self._path!r}")

    def read(self, size=-1):
        self._check_open()
        if not self._readable:
            raise io.UnsupportedOperation("file not open for reading")
        data = self._state.data
        end = len(data) if size < 0 else min(len(data), self._pos + size)
        out = bytes(data[self._pos:end])
        self._pos = end
        return out

    def write(self, data):
        self._check_open()
        if not self._writable:
            raise io.UnsupportedOperation("file not open for writing")
        state = self._state.data
        if self._append:
            self._pos = len(state)
        end = self._pos + len(data)
        if self._pos == len(state):
            state.extend(data)
        else:
            if end > len(state):
                state.extend(b"\x00" * (end - len(state)))
            state[self._pos:end] = data
        self._disk._record("write", self._path, str(self._pos), len(data))
        self._pos = end
        return len(data)

    def seek(self, offset, whence=os.SEEK_SET):
        self._check_open()
        if whence == os.SEEK_SET:
            self._pos = offset
        elif whence == os.SEEK_CUR:
            self._pos += offset
        else:
            self._pos = len(self._state.data) + offset
        return self._pos

    def tell(self):
        self._check_open()
        return self._pos

    def truncate(self, size):
        self._check_open()
        if not self._writable:
            raise io.UnsupportedOperation("file not open for writing")
        del self._state.data[size:]
        self._pos = min(self._pos, size)
        self._disk._record("truncate", self._path, "", size)
        return size

    def fsync(self):
        self._check_open()
        self._state.synced = bytes(self._state.data)
        self._disk._record("fsync", self._path, "", len(self._state.synced))

    def close(self):
        self.closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class RefDisk:
    """The two-image SimDisk, verbatim in behaviour."""

    def __init__(self, clock, seed):
        self.clock = clock
        self.rng = random.Random(seed)
        self._files = {}
        self._handles = {}
        self._torn = {}
        self.writes = self.fsyncs = self.crashes = self.bytes_lost = 0
        self.trace = None

    def start_trace(self):
        self.trace = []

    def _record(self, kind, path, detail, value):
        if kind == "write":
            self.writes += 1
        elif kind == "fsync":
            self.fsyncs += 1
        if self.trace is not None:
            self.trace.append(
                (kind, round(self.clock.now(), 9), path, detail, value))

    def trace_bytes(self):
        return "\n".join(repr(event) for event in self.trace).encode()

    def open(self, path, mode="rb"):
        if mode not in ("rb", "ab", "ab+", "wb", "rb+"):
            raise ConfigurationError(f"unsupported mode {mode!r}")
        state = self._files.get(path)
        if state is None:
            if mode == "rb":
                raise FileMissingError(path)
            state = self._files[path] = _RefState()
        if mode == "wb":
            state.data.clear()
        handle = _RefFile(self, path, state,
                          readable=mode in ("rb", "ab+", "rb+"),
                          writable=mode != "rb",
                          append=mode in ("ab", "ab+"))
        self._handles.setdefault(path, []).append(handle)
        self._record("open", path, mode, len(state.data))
        return handle

    def listdir(self, path):
        prefix = path.rstrip("/") + "/"
        return sorted({p[len(prefix):].split("/", 1)[0]
                       for p in self._files if p.startswith(prefix)})

    def getsize(self, path):
        try:
            return len(self._files[path].data)
        except KeyError:
            raise FileMissingError(path) from None

    def remove(self, path):
        if path not in self._files:
            raise FileMissingError(path)
        for handle in self._handles.pop(path, []):
            handle.close()
        del self._files[path]
        self._record("remove", path, "", 0)

    def replace(self, src, dst):
        if src not in self._files:
            raise FileMissingError(src)
        for handle in self._handles.pop(dst, []):
            handle.close()
        state = self._files.pop(src)
        state.synced = bytes(state.data)
        self._files[dst] = state
        self._handles[dst] = self._handles.pop(src, [])
        for handle in self._handles[dst]:
            handle._path = dst
        self._record("replace", src, dst, len(state.data))

    def _node_paths(self, node):
        prefix = node + "/"
        return sorted(p for p in self._files if p.startswith(prefix))

    def unsynced_bytes(self, node):
        return sum(self._files[p].unsynced_bytes
                   for p in self._node_paths(node))

    def arm_torn_write(self, node, path=None, keep_bytes=None):
        self._torn[node] = (path, keep_bytes)

    def flip_bit(self, node, path, offset=None, bit=None):
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
        if offset < len(state.synced):
            synced = bytearray(state.synced)
            synced[offset] ^= 1 << bit
            state.synced = bytes(synced)
        self._record("flip", full, f"bit={bit}", offset)
        return offset

    def crash_node(self, node):
        torn = self._torn.pop(node, None)
        torn_target = torn_keep = None
        if torn is not None:
            torn_path, torn_keep = torn
            if torn_path is not None:
                torn_target = f"{node}/{torn_path}"
            else:
                candidates = [p for p in self._node_paths(node)
                              if self._files[p].unsynced_bytes > 0]
                if candidates:
                    torn_target = max(
                        candidates,
                        key=lambda p: (self._files[p].unsynced_bytes, p))
        lost = 0
        for path in self._node_paths(node):
            state = self._files[path]
            tail = bytes(state.data[len(state.synced):])
            state.data = bytearray(state.synced)
            keep = b""
            if path == torn_target and tail:
                cut = torn_keep if torn_keep is not None \
                    else self.rng.randrange(1, len(tail) + 1)
                keep = tail[:min(cut, len(tail))]
                state.data.extend(keep)
                state.synced = bytes(state.data)
                self._record("torn", path, "", len(keep))
            lost += len(tail) - len(keep)
            for handle in self._handles.pop(path, []):
                handle.close()
        self.crashes += 1
        self.bytes_lost += lost
        self._record("crash", node, "", lost)
        return lost

    def restart_node(self, node):
        self._record("restart", node, "", 0)


# -- the differential walk ----------------------------------------------------

NODES = ("a", "b")
NAMES = ("f", "g", "f.tmp")
MODES = ("rb", "ab", "ab+", "wb", "rb+")
STEPS = 4000


def _outcome(call):
    """A call's observable result: its value or the type it raised."""
    try:
        return ("ok", call())
    except (FileMissingError, ConfigurationError, ValueError,
            io.UnsupportedOperation) as exc:
        return ("raised", type(exc).__name__)


class _Walk:
    """Drives the real disk and the model with one seeded script."""

    def __init__(self, seed):
        self.script = random.Random(seed)
        clock = SimClock()
        self.clock = clock
        self.disks = (SimDisk(clock=clock, seed=seed),
                      RefDisk(clock=clock, seed=seed))
        for disk in self.disks:
            disk.start_trace()
        self.handles = []       # [(real handle, model handle, path)]
        self.traced = 0
        self.history = []

    def both(self, label, call):
        """Run ``call(disk)`` on both sides; the outcomes must agree."""
        self.history.append(label)
        real, model = (_outcome(lambda d=d: call(d)) for d in self.disks)
        assert real == model, self.report(label)
        return real

    def on_handle(self, label, call):
        """Run ``call(handle, file size)`` on one open handle pair."""
        if not self.handles:
            return
        index = self.script.randrange(len(self.handles))
        ours, theirs, path = self.handles[index]
        size = self.size(path)
        self.history.append(f"{label} #{index} {path} ({size} B)")
        real, model = (_outcome(lambda h=h: call(h, size))
                       for h in (ours, theirs))
        assert real == model, self.report(label)

    def report(self, label):
        return f"diverged at {label!r}; last steps: {self.history[-12:]}"

    def path(self):
        return f"{self.script.choice(NODES)}/{self.script.choice(NAMES)}"

    def size(self, path):
        return self.disks[0].getsize(path) \
            if self.disks[0].exists(path) else 0

    # -- one scripted step --------------------------------------------------

    def step(self):
        script = self.script
        op = script.choices(
            ("open", "write", "overwrite", "read", "truncate", "fsync",
             "close", "replace", "remove", "flip", "arm", "crash", "tick"),
            (12, 30, 10, 6, 6, 14, 6, 3, 2, 4, 3, 5, 2))[0]
        if op == "open":
            path, mode = self.path(), script.choice(MODES)
            self.history.append(f"open {path} {mode}")
            real, model = (_outcome(lambda d=d: d.open(path, mode))
                           for d in self.disks)
            if real[0] == "ok" == model[0]:
                self.handles.append((real[1], model[1], path))
            else:
                assert real == model, self.report("open")
        elif op == "write":
            data = script.randbytes(script.randrange(41))
            self.on_handle(f"write {len(data)}",
                           lambda h, size: h.write(data))
        elif op == "overwrite":
            # anywhere in the file or up to 8 B past it (a zero-filled gap)
            data = script.randbytes(script.randrange(1, 25))
            where = script.random()
            if script.random() < 0.5:
                self.on_handle(
                    f"seek {where:.2f} from start + write {len(data)}",
                    lambda h, size: (h.seek(int(where * (size + 9))),
                                     h.write(data)))
            else:
                self.on_handle(
                    f"seek {where:.2f} from end + write {len(data)}",
                    lambda h, size: (h.seek(-int(where * (size + 1)),
                                            os.SEEK_END),
                                     h.write(data)))
        elif op == "read":
            count = script.choice((-1, 0, 5, 100))
            self.on_handle(f"read {count}", lambda h, size: h.read(count))
        elif op == "truncate":
            where = script.random()
            self.on_handle(f"truncate {where:.2f}",
                           lambda h, size: h.truncate(int(where * (size + 9))))
        elif op == "fsync":
            self.on_handle("fsync", lambda h, size: h.fsync())
        elif op == "close":
            self.on_handle("close", lambda h, size: h.close())
        elif op == "replace":
            node = script.choice(NODES)
            src, dst = script.sample(NAMES, 2)
            src, dst = f"{node}/{src}", f"{node}/{dst}"
            if self.both(f"replace {src} {dst}",
                         lambda d: d.replace(src, dst))[0] == "ok":
                self.handles = [(ours, theirs, dst if path == src else path)
                                for ours, theirs, path in self.handles]
        elif op == "remove":
            path = self.path()
            self.both(f"remove {path}", lambda d: d.remove(path))
        elif op == "flip":
            node, name = script.choice(NODES), script.choice(NAMES)
            size = self.size(f"{node}/{name}")
            offset = script.randrange(size) \
                if size and script.random() < 0.7 else None
            bit = script.choice((None, 0, 7))
            self.both(f"flip {node}/{name} @{offset} bit {bit}",
                      lambda d: d.flip_bit(node, name, offset, bit))
        elif op == "arm":
            node = script.choice(NODES)
            name = script.choice((None,) + NAMES)
            keep = script.choice((None, 0, 1, 7, 1000))
            self.both(f"arm {node} {name} keep {keep}",
                      lambda d: d.arm_torn_write(node, name, keep))
        elif op == "crash":
            node = script.choice(NODES)
            self.both(f"crash {node}", lambda d: d.crash_node(node))
            self.both(f"restart {node}", lambda d: d.restart_node(node))
        else:
            self.clock.advance(script.random())
        self.compare()

    # -- everything observable, after every step ----------------------------

    def compare(self):
        real, model = self.disks
        for node in NODES:
            assert real.listdir(node) == model.listdir(node), \
                self.report("listdir")
            assert real.unsynced_bytes(node) == model.unsynced_bytes(node), \
                self.report("unsynced_bytes")
            for name in real.listdir(node):
                path = f"{node}/{name}"
                assert real.getsize(path) == model.getsize(path), \
                    self.report("getsize")
                contents = []
                for disk in self.disks:
                    with disk.open(path, "rb") as reader:
                        contents.append(reader.read())
                assert contents[0] == contents[1], self.report(path)
        for counter in ("writes", "fsyncs", "crashes", "bytes_lost"):
            assert getattr(real, counter) == getattr(model, counter), \
                self.report(counter)
        for ours, theirs, _ in self.handles:
            assert ours.closed == theirs.closed, self.report("closed")
            if not ours.closed:
                assert ours.tell() == theirs.tell(), self.report("tell")
        # the trace only grows, so equal suffixes every step are equal
        # traces every step; trace_bytes() itself is compared at the end
        # (joining the whole trace per step would be quadratic)
        assert real.trace[self.traced:] == model.trace[self.traced:], \
            self.report("trace")
        self.traced = len(real.trace)
        self.handles = [pair for pair in self.handles if not pair[0].closed]


@pytest.mark.parametrize("seed", range(8))
def test_watermark_disk_matches_two_image_model(seed):
    walk = _Walk(seed)
    for _ in range(STEPS):
        walk.step()
    # a final power cut on every node exposes whatever durable image
    # the walk left behind
    for node in NODES:
        walk.both(f"final crash {node}", lambda d: d.crash_node(node))
    walk.compare()
    real, model = walk.disks
    assert real.trace_bytes() == model.trace_bytes()
    assert real.crashes > 50 and real.bytes_lost > 0     # the walk bit


def test_each_mutation_below_the_mark_is_undone_by_a_crash():
    """The three below-the-watermark mutations, one by one, each then
    crashed: the durable image comes back byte for byte."""
    for mutate in (
            lambda d, f: f.truncate(4),
            lambda d, f: (f.seek(2), f.write(b"XYZ")),
            lambda d, f: d.open("n/f", "wb").write(b"new, and longer!")):
        disk = SimDisk(clock=SimClock(), seed=0)
        f = disk.open("n/f", "rb+")
        f.write(b"0123456789")
        f.fsync()
        mutate(disk, f)
        disk.open("n/f", "ab").write(b"+tail")
        disk.crash_node("n")
        with disk.open("n/f", "rb") as g:
            assert g.read() == b"0123456789"


# -- the cost the watermark removes ------------------------------------------


def test_durable_append_costs_the_bytes_written_not_the_file_size():
    """One 100 B frame + fsync on a 16 MiB file: under 64 KiB allocated.
    The two-image disk copied the whole file here (16 MiB peak)."""
    disk = SimDisk(clock=SimClock(), seed=0)
    f = disk.open("n/segment.log", "ab")
    chunk = bytes(1 << 20)
    for _ in range(16):
        f.write(chunk)
    frame = b"x" * 100
    f.write(frame)      # if the buffer must grow, it grows here, untimed
    f.fsync()
    tracemalloc.start()
    try:
        f.write(frame)
        f.fsync()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert disk.getsize("n/segment.log") == (16 << 20) + 200
    assert disk.unsynced_bytes("n") == 0
    assert peak < 64 * 1024
