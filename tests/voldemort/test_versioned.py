"""Versioned value semantics."""

import dataclasses

import pytest

from repro.common.vectorclock import VectorClock
from repro.voldemort import Versioned


def test_initial_version_attributed_to_node():
    versioned = Versioned.initial(b"v", node_id=3)
    assert versioned.clock.counter_of(3) == 1
    assert not versioned.is_tombstone


def test_next_version_dominates():
    first = Versioned.initial(b"v1", 1)
    second = first.next_version(b"v2", 1)
    assert second.dominates(first)
    assert not first.dominates(second)


def test_concurrent_versions():
    base = Versioned.initial(b"v", 1)
    left = base.next_version(b"a", 1)
    right = base.next_version(b"b", 2)
    assert left.concurrent_with(right)


def test_tombstone():
    versioned = Versioned(None, VectorClock({1: 1}))
    assert versioned.is_tombstone


def test_a_version_is_slotted_and_frozen():
    """Every stored version is a ``Versioned``, so it carries no
    per-object ``__dict__``; equality still compares value and clock."""
    versioned = Versioned.initial(b"v", 1)
    assert not hasattr(versioned, "__dict__")
    assert versioned == Versioned(b"v", VectorClock({1: 1}))
    assert versioned != Versioned(b"w", VectorClock({1: 1}))
    with pytest.raises(dataclasses.FrozenInstanceError):
        versioned.value = b"w"
