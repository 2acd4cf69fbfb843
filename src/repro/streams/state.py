"""Task-local keyed state: a dict image, a changelog hook, and
all-or-nothing snapshot images on the container's disk.

Samza's state story (SNIPPETS.md §8) is reproduced structurally:

* the *store* is task-local and in-memory — reads and writes never
  leave the process, which is what makes stateful stream compute fast;
* every mutation is reported to an ``on_mutation`` hook, which the
  owning task wires to its **changelog topic** partition — the store
  itself never talks to Kafka (layering: state below, transport above);
* durability of the local image is a **snapshot**: the full key/value
  map plus the changelog offset it covers, written as one framed image
  (:func:`repro.common.wal.write_image`: temp file, fsync, atomic
  rename).  Recovery loads the snapshot and replays the changelog
  *suffix* from the snapshot's offset — the log+snapshot bootstrap
  shape Databus already uses (DESIGN.md §9).  A snapshot that is not a
  complete image is rejected on every load, never half-applied.

Values are JSON-serializable objects; keys are strings.  Mutations are
**idempotent upserts**: a changelog record carries the absolute new
value (or a tombstone), never a delta, so replaying a record twice is
harmless — the property the at-least-once recovery contract leans on.
"""

from __future__ import annotations

import json
from typing import Callable, Iterator

from repro.common.errors import ChecksumError, ConfigurationError
from repro.common.storage import Disk
from repro.common.wal import read_image, write_image

MutationHook = Callable[[str, object], None]


class KeyedStateStore:
    """One named key/value store owned by exactly one task."""

    def __init__(self, name: str, on_mutation: MutationHook | None = None):
        if not name:
            raise ConfigurationError("store needs a name")
        self.name = name
        self._data: dict[str, object] = {}
        self._on_mutation = on_mutation
        self.puts = 0
        self.deletes = 0
        self.gets = 0

    # -- read path --------------------------------------------------------

    def get(self, key: str) -> object | None:
        self.gets += 1
        return self._data.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> list[str]:
        """Keys in sorted order — iteration never leaks dict history."""
        return sorted(self._data)

    def items(self) -> list[tuple[str, object]]:
        return sorted(self._data.items())

    def range(self, prefix: str) -> Iterator[tuple[str, object]]:
        """Sorted (key, value) pairs whose key starts with ``prefix`` —
        the windowed-counter scans the serving API runs."""
        for key in self.keys():
            if key.startswith(prefix):
                yield key, self._data[key]

    # -- write path -------------------------------------------------------

    def put(self, key: str, value: object) -> None:
        """Upsert: the absolute new value is logged, never a delta."""
        if value is None:
            raise ConfigurationError(
                "None is the tombstone; use delete() to remove a key")
        self._data[key] = value
        self.puts += 1
        if self._on_mutation is not None:
            self._on_mutation(key, value)

    def delete(self, key: str) -> None:
        if key in self._data:
            del self._data[key]
        self.deletes += 1
        if self._on_mutation is not None:
            self._on_mutation(key, None)

    # -- replay path ------------------------------------------------------

    def apply(self, key: str, value: object | None) -> None:
        """Apply one changelog/snapshot record without re-logging it."""
        if value is None:
            self._data.pop(key, None)
        else:
            self._data[key] = value

    def clear(self) -> None:
        self._data.clear()

    # -- fingerprinting ---------------------------------------------------

    def fingerprint(self, exclude_prefix: str | None = None) -> bytes:
        """Canonical bytes of the image — what the chaos suite
        byte-compares between a failure run and its clean twin.

        ``exclude_prefix`` filters out bookkeeping keys (the dedupe
        watermarks) whose values track physical log offsets: those
        legitimately differ between a failure run and a clean run even
        when the application state is byte-identical.
        """
        entries = self.items()
        if exclude_prefix is not None:
            entries = [(key, value) for key, value in entries
                       if not key.startswith(exclude_prefix)]
        return json.dumps(entries, sort_keys=True,
                          separators=(",", ":")).encode()


# -- snapshots -------------------------------------------------------------

_SNAPSHOT_VERSION = 1


def write_snapshot(disk: Disk, path: str, store: KeyedStateStore,
                   changelog_offset: int) -> int:
    """Write the store image + covered changelog offset, atomically.

    One image: a header payload, then one payload per key in sorted
    order.  A crash at any point leaves either the old snapshot or the
    new one, never a torn mix.  Returns the number of entries written.
    """
    header = {"version": _SNAPSHOT_VERSION, "store": store.name,
              "changelog_offset": changelog_offset}
    entries = store.items()
    write_image(disk, path, [
        json.dumps(header, sort_keys=True).encode(),
        *(json.dumps({"k": key, "v": value}, sort_keys=True).encode()
          for key, value in entries)])
    return len(entries)


def load_snapshot(disk: Disk, path: str,
                  store: KeyedStateStore) -> int | None:
    """Load a snapshot into ``store`` (replacing its contents).

    Returns the changelog offset the snapshot covers, or ``None`` when
    no usable snapshot exists (missing file, damaged image, wrong
    store) — the caller then falls back to a full changelog replay.  A
    torn or corrupt snapshot is rejected entirely rather than
    half-loaded: the header's offset would skip the changelog records
    of whatever entries were lost.
    """
    try:
        payloads = read_image(disk, path)
    except ChecksumError:
        return None
    if not payloads:
        return None
    header = json.loads(payloads[0])
    if header.get("store") != store.name:
        return None
    store.clear()
    for payload in payloads[1:]:
        record = json.loads(payload)
        store.apply(record["k"], record["v"])
    return int(header["changelog_offset"])
