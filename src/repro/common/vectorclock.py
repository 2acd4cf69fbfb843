"""Vector clocks (Lamport [LAM78]) as used by Voldemort (§II.B).

Voldemort versions every tuple with a vector clock and delegates
conflict resolution of concurrent versions to the application.  Two
clocks are *concurrent* when neither dominates the other; a replica
holding concurrent versions surfaces both to the reader.

The implementation is immutable: ``incremented`` and ``merged`` return
new clocks, which keeps versions safe to share between simulated nodes.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, Sequence

from repro.common.errors import ConfigurationError


class Occurred(Enum):
    """Relationship between two vector clocks."""

    BEFORE = "before"        # self < other
    AFTER = "after"          # self > other
    EQUAL = "equal"          # identical
    CONCURRENT = "concurrent"  # neither dominates


#: (self is bigger somewhere, other is bigger somewhere) -> relation
_RELATION = {(False, False): Occurred.EQUAL, (True, False): Occurred.AFTER,
             (False, True): Occurred.BEFORE, (True, True): Occurred.CONCURRENT}


class VectorClock:
    """An immutable mapping of node id -> logical counter."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, int] | None = None):
        items = dict(entries or {})
        for node, counter in items.items():
            if counter <= 0:
                raise ConfigurationError(
                    f"counter for node {node} must be positive, "
                    f"got {counter}")
        self._entries: tuple[tuple[int, int], ...] = tuple(sorted(items.items()))

    @property
    def entries(self) -> dict[int, int]:
        return dict(self._entries)

    def counter_of(self, node_id: int) -> int:
        for node, counter in self._entries:
            if node == node_id:
                return counter
        return 0

    def incremented(self, node_id: int) -> "VectorClock":
        """Return a copy with ``node_id``'s counter bumped by one."""
        entries = self.entries
        entries[node_id] = entries.get(node_id, 0) + 1
        return VectorClock(entries)

    def merged(self, other: "VectorClock") -> "VectorClock":
        """Pointwise maximum — the join in the version lattice."""
        entries = self.entries
        for node, counter in other._entries:
            entries[node] = max(entries.get(node, 0), counter)
        return VectorClock(entries)

    def compare(self, other: "VectorClock") -> Occurred:
        """One merge-walk over the two node-sorted entry tuples; a node
        only one side lists counts as bigger there (counters are > 0)."""
        mine, theirs = self._entries, other._entries
        mine_len, theirs_len = len(mine), len(theirs)
        i = j = 0
        self_bigger = other_bigger = False
        while i < mine_len and j < theirs_len:
            (node, counter), (other_node, other_counter) = mine[i], theirs[j]
            if node == other_node:
                if counter > other_counter:
                    self_bigger = True
                elif other_counter > counter:
                    other_bigger = True
                i += 1
                j += 1
            elif node < other_node:
                self_bigger = True
                i += 1
            else:
                other_bigger = True
                j += 1
        return _RELATION[self_bigger or i < mine_len,
                         other_bigger or j < theirs_len]

    def dominates(self, other: "VectorClock") -> bool:
        return self.compare(other) is Occurred.AFTER

    def descends_from(self, other: "VectorClock") -> bool:
        """True when ``self`` is equal to or causally after ``other``."""
        return self.compare(other) in (Occurred.AFTER, Occurred.EQUAL)

    def concurrent_with(self, other: "VectorClock") -> bool:
        return self.compare(other) is Occurred.CONCURRENT

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorClock) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        body = ", ".join(f"{node}:{counter}" for node, counter in self._entries)
        return f"VectorClock({{{body}}})"


def merge_frontier(frontier: Iterable, incoming) -> list | None:
    """Offer ``incoming`` to a frontier of pairwise-concurrent items
    (anything with a ``.clock``) — the one place versions are reconciled.
    Returns the new frontier: the members ``incoming`` does not dominate,
    in their order, then ``incoming``; or ``None``, frontier untouched,
    when a member equals it (a tuple comparison, tried first) or
    dominates it."""
    clock = incoming.clock
    entries = clock._entries
    survivors = []
    for kept in frontier:
        if kept.clock._entries == entries:
            return None
        relation = clock.compare(kept.clock)
        if relation is Occurred.BEFORE:
            return None
        if relation is Occurred.CONCURRENT:
            survivors.append(kept)
    survivors.append(incoming)
    return survivors


def same_single_version(kept: Sequence, reply: Sequence) -> bool:
    """True when both replies hold exactly one version and the clocks
    are equal (a tuple comparison, no :meth:`VectorClock.compare`):
    merging ``reply`` into ``kept`` would then change nothing, because
    :func:`merge_frontier` keeps the first of a group of equals."""
    return (len(kept) == 1 and len(reply) == 1
            and kept[0].clock._entries == reply[0].clock._entries)


def frontier_of(replies: Sequence[Sequence]) -> Sequence:
    """Merge replica replies into the read frontier: the versions no
    other dominates, one of each group of equals, in first-seen order
    (read repair pushes in that order, so it is part of the determinism
    contract).  Replicas agreeing on one version — the common case —
    cost a :func:`same_single_version` test each and return the first
    reply itself."""
    first = replies[0]
    for reply in replies:
        if not same_single_version(first, reply):
            break
    else:
        return first
    frontier: list = []
    for reply in replies:
        for item in reply:
            frontier = merge_frontier(frontier, item) or frontier
    return frontier
