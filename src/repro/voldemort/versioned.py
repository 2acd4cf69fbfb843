"""Versioned values: a payload plus its vector clock."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.vectorclock import Occurred, VectorClock


@dataclass(frozen=True, slots=True)
class Versioned:
    """An immutable (value, vector clock) pair.

    ``value`` is opaque bytes at the storage layer; richer types live in
    the client's serializers.  A ``None`` value is a tombstone.  Slotted:
    every stored version is one, and a batch read touches thousands.
    """

    value: bytes | None
    clock: VectorClock

    def dominates(self, other: "Versioned") -> bool:
        return self.clock.compare(other.clock) is Occurred.AFTER

    def concurrent_with(self, other: "Versioned") -> bool:
        return self.clock.concurrent_with(other.clock)

    @property
    def is_tombstone(self) -> bool:
        return self.value is None

    @staticmethod
    def initial(value: bytes, node_id: int) -> "Versioned":
        """First write of a key, attributed to ``node_id``."""
        return Versioned(value, VectorClock().incremented(node_id))

    def next_version(self, value: bytes | None, node_id: int) -> "Versioned":
        """A successor version written at ``node_id``."""
        return Versioned(value, self.clock.incremented(node_id))
