"""Dict-backed storage engine for tests, mocks, and cache-like stores."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.common.errors import KeyNotFoundError
from repro.voldemort.engines.base import StorageEngine
from repro.voldemort.versioned import Versioned


class InMemoryStorageEngine(StorageEngine):
    """The simplest engine honouring the multi-version contract.

    A key's versions are stored as a tuple, so :meth:`get_many` can hand
    out the stored sequence itself without a caller being able to
    change what the engine holds.  Only a key a tombstone was ever
    written to can hold one, so the engine remembers those keys (at
    most the keys it holds) and a batch read filters only them."""

    name = "memory"

    def __init__(self):
        self._data: dict[bytes, tuple[Versioned, ...]] = {}
        self._tombstoned: set[bytes] = set()

    def get(self, key: bytes) -> list[Versioned]:
        versions = [v for v in self._data.get(key, ()) if not v.is_tombstone]
        if not versions:
            raise KeyNotFoundError(repr(key))
        return versions

    def get_many(self, groups: Iterable[Iterable[bytes]]
                 ) -> list[dict[bytes, Sequence[Versioned]]]:
        """One dict lookup per key and no exception for an absent one; a
        key that never held a tombstone returns its stored tuple."""
        get, tombstoned = self._data.get, self._tombstoned
        answers = []
        for keys in groups:
            found = {key: versions for key in keys
                     if (versions := get(key)) is not None}
            for key in tombstoned.intersection(found) if tombstoned else ():
                live = [v for v in found[key] if not v.is_tombstone]
                if not live:
                    del found[key]
                elif len(live) < len(found[key]):
                    found[key] = live
            answers.append(found)
        return answers

    def get_including_tombstones(self, key: bytes) -> list[Versioned]:
        """All stored versions, tombstones included (repair needs these)."""
        versions = self._data.get(key)
        if not versions:
            raise KeyNotFoundError(repr(key))
        return list(versions)

    def put(self, key: bytes, versioned: Versioned) -> None:
        self._data[key] = tuple(self.merge_version(self._data.get(key, ()),
                                                   versioned))
        if versioned.value is None:
            self._tombstoned.add(key)

    def keys(self) -> Iterator[bytes]:
        for key, versions in self._data.items():
            if any(not v.is_tombstone for v in versions):
                yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def truncate(self) -> None:
        self._data.clear()
        self._tombstoned.clear()
