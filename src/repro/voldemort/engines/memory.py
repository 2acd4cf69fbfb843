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
    change what the engine holds."""

    name = "memory"

    def __init__(self):
        self._data: dict[bytes, tuple[Versioned, ...]] = {}

    def get(self, key: bytes) -> list[Versioned]:
        versions = [v for v in self._data.get(key, ()) if not v.is_tombstone]
        if not versions:
            raise KeyNotFoundError(repr(key))
        return versions

    def get_many(self, keys: Iterable[bytes]
                 ) -> dict[bytes, Sequence[Versioned]]:
        """One dict lookup per key and no exception for an absent one;
        a key holding one live version returns its stored tuple."""
        data = self._data
        found = {}
        for key in keys:
            versions = data.get(key)
            if versions is None:
                continue
            if len(versions) == 1:
                if versions[0].value is not None:
                    found[key] = versions
                continue
            live = [v for v in versions if not v.is_tombstone]
            if live:
                found[key] = live
        return found

    def get_including_tombstones(self, key: bytes) -> list[Versioned]:
        """All stored versions, tombstones included (repair needs these)."""
        versions = self._data.get(key)
        if not versions:
            raise KeyNotFoundError(repr(key))
        return list(versions)

    def put(self, key: bytes, versioned: Versioned) -> None:
        self._data[key] = tuple(self.merge_version(self._data.get(key, ()),
                                                   versioned))

    def keys(self) -> Iterator[bytes]:
        for key, versions in self._data.items():
            if any(not v.is_tombstone for v in versions):
                yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def truncate(self) -> None:
        self._data.clear()
