"""The storage-engine interface every engine implements."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.common.errors import KeyNotFoundError, ObsoleteVersionError
from repro.common.vectorclock import merge_frontier
from repro.voldemort.versioned import Versioned


class StorageEngine:
    """Key -> list-of-concurrent-versions storage.

    The multi-version contract (shared by all engines):

    * ``get`` returns every version not dominated by another — the
      concurrent frontier;
    * ``put`` fails with :class:`ObsoleteVersionError` when an existing
      version dominates or equals the written clock (the optimistic-
      locking signal of §II.B);
    * a successful ``put`` removes versions the new one dominates and
      keeps genuinely concurrent siblings.
    """

    name = "abstract"
    writable = True

    def get(self, key: bytes) -> list[Versioned]:
        raise NotImplementedError

    def get_many(self, keys: Iterable[bytes]
                 ) -> dict[bytes, Sequence[Versioned]]:
        """``get`` over a batch, in one call: key -> versions, absent
        keys omitted.  Engines may override it with a cheaper loop; a
        returned sequence may be shared with the engine only if it is
        immutable."""
        found = {}
        for key in keys:
            try:
                found[key] = self.get(key)
            except KeyNotFoundError:
                continue
        return found

    def put(self, key: bytes, versioned: Versioned) -> None:
        raise NotImplementedError

    def delete(self, key: bytes, versioned: Versioned) -> None:
        """Write a tombstone version (deletes are writes with None)."""
        self.put(key, Versioned(None, versioned.clock))

    def keys(self) -> Iterator[bytes]:
        raise NotImplementedError

    def entries(self) -> Iterator[tuple[bytes, Versioned]]:
        for key in self.keys():
            for versioned in self.get(key):
                yield key, versioned

    def close(self) -> None:
        """Release resources; default is a no-op."""

    # -- the write contract -------------------------------------------------

    @staticmethod
    def merge_version(existing: Iterable, incoming) -> list:
        """Apply the multi-version write contract; returns the new list
        (``incoming`` last).  Items are anything with a ``.clock``."""
        merged = merge_frontier(existing, incoming)
        if merged is None:
            raise ObsoleteVersionError(
                "a stored version dominates or equals the write")
        return merged
