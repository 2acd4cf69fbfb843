"""Dict-backed storage engine for tests, mocks, and cache-like stores."""

from __future__ import annotations

from typing import Iterator

from repro.common.errors import KeyNotFoundError
from repro.voldemort.engines.base import StorageEngine
from repro.voldemort.versioned import Versioned


class InMemoryStorageEngine(StorageEngine):
    """The simplest engine honouring the multi-version contract."""

    name = "memory"

    def __init__(self):
        self._data: dict[bytes, list[Versioned]] = {}

    def get(self, key: bytes) -> list[Versioned]:
        versions = [v for v in self._data.get(key, ()) if not v.is_tombstone]
        if not versions:
            raise KeyNotFoundError(repr(key))
        return versions

    def get_including_tombstones(self, key: bytes) -> list[Versioned]:
        """All stored versions, tombstones included (repair needs these)."""
        versions = self._data.get(key)
        if not versions:
            raise KeyNotFoundError(repr(key))
        return list(versions)

    def put(self, key: bytes, versioned: Versioned) -> None:
        self._data[key] = self.merge_version(self._data.get(key, ()),
                                             versioned)

    def keys(self) -> Iterator[bytes]:
        for key, versions in self._data.items():
            if any(not v.is_tombstone for v in versions):
                yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def truncate(self) -> None:
        self._data.clear()
