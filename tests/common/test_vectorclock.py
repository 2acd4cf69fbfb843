"""Vector clock semantics (Voldemort §II.B)."""

import pytest
from hypothesis import given, strategies as st

from collections import namedtuple

from repro.common.vectorclock import (
    Occurred,
    VectorClock,
    frontier_of,
    merge_frontier,
    same_single_version,
)

#: the smallest thing the frontier routines accept: anything with .clock
Item = namedtuple("Item", "clock value")


def test_empty_clocks_are_equal():
    assert VectorClock().compare(VectorClock()) is Occurred.EQUAL


def test_increment_creates_new_clock():
    base = VectorClock()
    bumped = base.incremented(1)
    assert base.counter_of(1) == 0
    assert bumped.counter_of(1) == 1
    assert bumped.compare(base) is Occurred.AFTER
    assert base.compare(bumped) is Occurred.BEFORE


def test_concurrent_writes_detected():
    base = VectorClock().incremented(1)
    a = base.incremented(1)
    b = base.incremented(2)
    assert a.compare(b) is Occurred.CONCURRENT
    assert b.compare(a) is Occurred.CONCURRENT


def test_merge_dominates_both_parents():
    a = VectorClock().incremented(1).incremented(1)
    b = VectorClock().incremented(2)
    merged = a.merged(b)
    assert merged.descends_from(a)
    assert merged.descends_from(b)


def test_positive_counters_enforced():
    with pytest.raises(ValueError):
        VectorClock({1: 0})


def test_frontier_keeps_concurrent_versions_in_first_seen_order():
    base = VectorClock().incremented(1)
    newer = base.incremented(1)
    sibling = base.incremented(2)
    survivors = frontier_of([[Item(base, "old"), Item(sibling, "side")],
                             [Item(newer, "new")]])
    assert [item.value for item in survivors] == ["side", "new"]


def test_frontier_keeps_the_first_of_equal_versions():
    clock = VectorClock().incremented(1)
    survivors = frontier_of([[Item(clock, "first")], [Item(clock, "second")]])
    assert [item.value for item in survivors] == ["first"]


def test_merge_frontier_rejects_equal_and_dominated_offers():
    old = Item(VectorClock({1: 1}), "old")
    new = Item(VectorClock({1: 2}), "new")
    side = Item(VectorClock({2: 1}), "side")
    frontier = [new, side]
    assert merge_frontier(frontier, old) is None
    assert merge_frontier(frontier, Item(new.clock, "again")) is None
    assert frontier == [new, side]          # untouched either way
    winner = Item(VectorClock({1: 3}), "winner")
    assert merge_frontier(frontier, winner) == [side, winner]


def test_repr_is_stable():
    clock = VectorClock().incremented(2).incremented(1)
    assert repr(clock) == "VectorClock({1:1, 2:1})"


# -- property-based laws ----------------------------------------------------

clock_entries = st.dictionaries(st.integers(0, 6), st.integers(1, 5), max_size=5)


@given(clock_entries, clock_entries)
def test_compare_antisymmetry(a_entries, b_entries):
    a, b = VectorClock(a_entries), VectorClock(b_entries)
    relation = a.compare(b)
    inverse = b.compare(a)
    expected = {
        Occurred.BEFORE: Occurred.AFTER,
        Occurred.AFTER: Occurred.BEFORE,
        Occurred.EQUAL: Occurred.EQUAL,
        Occurred.CONCURRENT: Occurred.CONCURRENT,
    }[relation]
    assert inverse is expected


@given(clock_entries, clock_entries)
def test_merge_is_least_upper_bound(a_entries, b_entries):
    a, b = VectorClock(a_entries), VectorClock(b_entries)
    merged = a.merged(b)
    assert merged.descends_from(a)
    assert merged.descends_from(b)
    # least: every entry equals one of the parents' counters
    for node, counter in merged.entries.items():
        assert counter == max(a.counter_of(node), b.counter_of(node))


@given(clock_entries, st.integers(0, 6))
def test_increment_always_moves_forward(entries, node):
    clock = VectorClock(entries)
    assert clock.incremented(node).compare(clock) is Occurred.AFTER


# -- the frontier routine and the merge-walk against their references --------


def reference_compare(a: VectorClock, b: VectorClock) -> Occurred:
    """``compare`` as it was before the merge-walk: counter by counter
    over the union of node ids."""
    a_bigger = b_bigger = False
    for node in set(a.entries) | set(b.entries):
        mine, theirs = a.counter_of(node), b.counter_of(node)
        a_bigger = a_bigger or mine > theirs
        b_bigger = b_bigger or theirs > mine
    if a_bigger and b_bigger:
        return Occurred.CONCURRENT
    if a_bigger:
        return Occurred.AFTER
    return Occurred.BEFORE if b_bigger else Occurred.EQUAL


def reference_frontier(items: list) -> list:
    """The pairwise definition: an item survives unless another one
    dominates it or an equal one came earlier; survivors keep input
    order."""
    survivors = []
    for i, item in enumerate(items):
        relations = [reference_compare(item.clock, other.clock)
                     for other in items]
        if Occurred.BEFORE in relations or Occurred.EQUAL in relations[:i]:
            continue
        survivors.append(item)
    return survivors


#: pairs drawn from one small node-id pool overlap on some ids; the
#: shifted pool gives fully disjoint entry sets, and ``prefix_pairs``
#: gives one clock whose entries are a prefix of the other's
disjoint_pairs = st.tuples(
    clock_entries,
    st.dictionaries(st.integers(10, 16), st.integers(1, 5), max_size=5))
prefix_pairs = st.tuples(clock_entries, st.integers(0, 5)).map(
    lambda pair: (pair[0], dict(sorted(pair[0].items())[:pair[1]])))


@given(st.one_of(st.tuples(clock_entries, clock_entries), disjoint_pairs,
                 prefix_pairs))
def test_merge_walk_compare_matches_reference(pair):
    a, b = VectorClock(pair[0]), VectorClock(pair[1])
    assert a.compare(b) is reference_compare(a, b)
    assert b.compare(a) is reference_compare(b, a)


@given(st.lists(st.lists(clock_entries, max_size=4), min_size=1, max_size=4))
def test_frontier_matches_pairwise_reference(reply_entries):
    replies, flat = [], []
    for entry_sets in reply_entries:
        reply = [Item(VectorClock(e), len(flat) + i)
                 for i, e in enumerate(entry_sets)]
        replies.append(reply)
        flat.extend(reply)
    survivors = frontier_of(replies)
    # identity, not equality: *which* of two equal versions survives and
    # in what order is what read repair's push order depends on
    assert [item.value for item in survivors] == \
        [item.value for item in reference_frontier(flat)]
    for a in survivors:
        for b in survivors:
            if a is not b:
                assert a.clock.compare(b.clock) is Occurred.CONCURRENT


@given(st.lists(st.lists(clock_entries, max_size=3), min_size=1, max_size=4))
def test_skipping_agreeing_replies_keeps_the_frontier(reply_entries):
    """``get_all``'s fold: a reply that is the same single version as the
    first one adds nothing, so leaving it out of ``frontier_of`` changes
    neither the frontier nor its order."""
    replies, count = [], 0
    for entry_sets in reply_entries:
        replies.append([Item(VectorClock(e), count + i)
                        for i, e in enumerate(entry_sets)])
        count += len(entry_sets)
    first = replies[0]
    differing = [first] + [reply for reply in replies[1:]
                           if not same_single_version(first, reply)]
    assert [item.value for item in frontier_of(differing)] == \
        [item.value for item in frontier_of(replies)]
    assert same_single_version(first, first) == (len(first) == 1)
