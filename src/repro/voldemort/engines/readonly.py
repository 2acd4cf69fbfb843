"""The custom read-only storage engine (§II.B "Storage Engine").

Layout per the paper: each data deployment creates a new *versioned
directory* under the store directory containing a compact **index
file** — "a compact list of sorted MD5 of key and offset to data into
the data file" — and a **data file**.  A swap reads the index into
memory once; that is the paper's memory-mapped index "delegating
caching to the OS page cache", and the node's :class:`Disk` buffer is
that page cache.  Lookups binary-search the index and then read the
record through a data-file handle.  Keeping multiple complete versions
on disk makes rollback instantaneous: swap back to the previous
directory.

This module owns the file format (little-endian); the build job in
:mod:`repro.voldemort.readonly_pipeline` calls into it:

    index:  [md5(key) : 16B][data_offset : 8B]  * n, sorted by md5
    data:   [key_len : 4B][key][value_len : 4B][value]  * n, index order

Crash semantics: a pull writes and fsyncs the data file, then
publishes the index last (temp file, fsync, rename), so a version
exists only once its index does.  A swap records the serving version
in one image, so a restarted node serves exactly the version it served
before the crash, not merely the newest one on disk.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from typing import Iterable, Iterator

from repro.common.errors import ChecksumError, ConfigurationError, KeyNotFoundError
from repro.common.ring import key_digest
from repro.common.storage import Disk
from repro.common.vectorclock import VectorClock
from repro.common.wal import read_image, write_image
from repro.voldemort.engines.base import StorageEngine
from repro.voldemort.versioned import Versioned

INDEX_ENTRY = struct.Struct("<16sQ")
_U32 = struct.Struct("<I")

INDEX_FILE = "0.index"
DATA_FILE = "0.data"
SERVING_FILE = "serving"


def pack_record(key: bytes, value: bytes) -> bytes:
    """One data-file record."""
    return _U32.pack(len(key)) + key + _U32.pack(len(value)) + value


def _unpack_record(data: bytes, offset: int) -> tuple[bytes, bytes, int]:
    """The record at ``offset``: ``(key, value, offset just past it)``."""
    (key_len,) = _U32.unpack_from(data, offset)
    key_end = offset + 4 + key_len
    (value_len,) = _U32.unpack_from(data, key_end)
    end = key_end + 4 + value_len
    return data[offset + 4:key_end], data[key_end + 4:end], end


def build_index(data: bytes) -> bytes:
    """The index of a data file whose records are already md5-sorted."""
    index = bytearray()
    offset = 0
    while offset < len(data):
        key, _, end = _unpack_record(data, offset)
        index += INDEX_ENTRY.pack(key_digest(key), offset)
        offset = end
    return bytes(index)


def build_store_files(pairs: Iterable[tuple[bytes, bytes]]) -> tuple[bytes, bytes]:
    """Serialize (key, value) pairs into (index_bytes, data_bytes),
    sorting by MD5 of key — the sort the paper offloads to Hadoop's
    shuffle."""
    hashed = sorted((key_digest(key), key, value)
                    for key, value in pairs)
    for (_, key, _), (_, following, _) in zip(hashed, hashed[1:]):
        if key == following:
            raise ConfigurationError(f"duplicate key in read-only build: {key!r}")
    data = b"".join(pack_record(key, value) for _, key, value in hashed)
    return build_index(data), data


def _write_synced(disk: Disk, path: str, data: bytes) -> None:
    with disk.open(path, "wb") as out:
        out.write(data)
        out.fsync()


def write_version_dir(disk: Disk, store_dir: str, version: int,
                      index: bytes, data: bytes) -> str:
    """Land one versioned directory; returns its path.  The data file
    is fsynced before the index is published by rename, so a crash
    mid-pull leaves no version behind, only debris the retry overwrites."""
    version_dir = f"{store_dir}/version-{version}"
    disk.makedirs(version_dir)
    _write_synced(disk, f"{version_dir}/{DATA_FILE}", data)
    index_path = f"{version_dir}/{INDEX_FILE}"
    _write_synced(disk, index_path + ".tmp", index)
    disk.replace(index_path + ".tmp", index_path)
    return version_dir


class ReadOnlyStorageEngine(StorageEngine):
    """Binary-search reads over the currently-swapped version directory."""

    name = "read-only"
    writable = False

    def __init__(self, store_dir: str, disk: Disk):
        self.store_dir = store_dir
        self.disk = disk
        disk.makedirs(store_dir)
        self._digests: list[bytes] = []
        self._offsets: list[int] = []   # one past the last: the data size
        self._data = None   # the serving version's data-file handle
        self.current_version: int | None = None
        version = self._recorded_version()
        if version is None:
            complete = self.versions_on_disk()
            version = complete[-1] if complete else None
        if version is not None:
            self.load(version)

    # -- version management -------------------------------------------------

    def _path(self, version: int, name: str) -> str:
        return f"{self.store_dir}/version-{version}/{name}"

    def versions_on_disk(self) -> list[int]:
        """Complete versions: a version exists once its index does."""
        versions = []
        for name in self.disk.listdir(self.store_dir):
            number = name.removeprefix("version-")
            if number != name and number.isdigit() \
                    and self.disk.exists(self._path(int(number), INDEX_FILE)):
                versions.append(int(number))
        return sorted(versions)

    def _recorded_version(self) -> int | None:
        try:
            record = read_image(self.disk, f"{self.store_dir}/{SERVING_FILE}")
        except ChecksumError:
            return None
        return None if record is None else int(record[0])

    def load(self, version: int) -> None:
        """Serve ``version`` from memory on: read its index once and open
        its data file.  Touches no durable state, so a cluster-wide flip
        can run it on every node with no yield in between."""
        if version not in self.versions_on_disk():
            raise ConfigurationError(
                f"incomplete version directory {self.store_dir}/version-{version}")
        with self.disk.open(self._path(version, INDEX_FILE), "rb") as f:
            entries = list(INDEX_ENTRY.iter_unpack(f.read()))
        data_path = self._path(version, DATA_FILE)
        self.close()
        self._digests = [digest for digest, _ in entries]
        self._offsets = [offset for _, offset in entries]
        self._offsets.append(self.disk.getsize(data_path))
        self._data = self.disk.open(data_path, "rb")
        self.current_version = version

    def record_serving(self, version: int) -> None:
        """Durably name ``version`` as the one a restart serves (one
        image: the old name or the new one, never a mix)."""
        write_image(self.disk, f"{self.store_dir}/{SERVING_FILE}",
                    [str(version).encode()])

    def swap(self, version: int) -> None:
        """Switch serving to ``version``, now and across a restart
        (§II.B swap phase)."""
        self.load(version)
        self.record_serving(version)

    def previous_version(self) -> int:
        """The newest version older than the one being served."""
        if self.current_version is None:
            raise ConfigurationError("nothing is being served")
        older = [v for v in self.versions_on_disk() if v < self.current_version]
        if not older:
            raise ConfigurationError("no older version to roll back to")
        return older[-1]

    def rollback(self) -> int:
        """Swap back to the previous version; returns it."""
        version = self.previous_version()
        self.swap(version)
        return version

    def delete_version(self, version: int) -> None:
        if version == self.current_version:
            raise ConfigurationError("cannot delete the serving version")
        for name in (INDEX_FILE, DATA_FILE):
            path = self._path(version, name)
            if self.disk.exists(path):
                self.disk.remove(path)

    def close(self) -> None:
        if self._data is not None:
            self._data.close()
            self._data = None

    # -- reads ------------------------------------------------------------------

    @property
    def entry_count(self) -> int:
        return len(self._digests)

    def _record(self, position: int) -> tuple[bytes, bytes]:
        # records lie in index order, so one ends where the next begins
        start, end = self._offsets[position], self._offsets[position + 1]
        self._data.seek(start)
        key, value, _ = _unpack_record(self._data.read(end - start), 0)
        return key, value

    def get(self, key: bytes) -> list[Versioned]:
        if self.current_version is None:
            raise KeyNotFoundError("no version swapped in")
        digest = key_digest(key)
        position = bisect_left(self._digests, digest)
        # scan forward over equal digests (md5 collisions are verified
        # against the stored key)
        while position < len(self._digests) \
                and self._digests[position] == digest:
            stored_key, value = self._record(position)
            if stored_key == key:
                return [Versioned(value, VectorClock({0: 1}))]
            position += 1
        raise KeyNotFoundError(repr(key))

    def keys(self) -> Iterator[bytes]:
        for position in range(self.entry_count):
            yield self._record(position)[0]

    def put(self, key: bytes, versioned: Versioned) -> None:
        raise ConfigurationError("read-only store: use the build/pull/swap cycle")
