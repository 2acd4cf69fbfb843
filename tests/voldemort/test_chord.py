"""Chord baseline vs full-topology routing (EXP-V4 substrate)."""

import math

import pytest

from repro.common.errors import ConfigurationError
from repro.common.ring import hash_key
from repro.voldemort import chord
from repro.voldemort.chord import ChordRing, FullTopologyRouter


def names(n):
    return [f"node-{i:03d}" for i in range(n)]


def test_empty_ring_rejected():
    with pytest.raises(ConfigurationError):
        ChordRing([])
    with pytest.raises(ConfigurationError):
        FullTopologyRouter([])


def test_single_node_owns_everything():
    ring = ChordRing(["only"])
    owner, hops = ring.lookup(b"any-key")
    assert owner == "only"
    assert hops == 0


def test_chord_and_full_topology_agree_on_owner():
    ring = ChordRing(names(256))
    router = FullTopologyRouter(names(256))
    for i in range(2000):
        key = f"key-{i}".encode()
        chord_owner, _ = ring.lookup(key)
        full_owner, _ = router.lookup(key)
        assert chord_owner == full_owner


def test_full_topology_is_always_one_hop():
    router = FullTopologyRouter(names(64))
    assert all(router.lookup(f"k{i}".encode())[1] == 1 for i in range(100))


def test_chord_hops_scale_logarithmically():
    """EXP-V4: O(log N) finger-table hops against exactly one with the
    full topology, at every cluster size."""
    keys = [f"key-{i}".encode() for i in range(300)]

    def mean_hops(router, **start):
        return round(sum(router.lookup(k, **start)[1] for k in keys) / 300, 2)

    chord = {n: mean_hops(ChordRing(names(n)), start_name=names(n)[0])
             for n in (4, 16, 64, 256)}
    assert chord == {4: 0.74, 16: 2.62, 64: 3.84, 256: 4.78}
    assert all(hops <= 2 * math.log2(n) for n, hops in chord.items())
    assert all(mean_hops(FullTopologyRouter(names(n))) == 1 for n in chord)


def test_lookup_from_unknown_node_rejected():
    ring = ChordRing(names(4))
    with pytest.raises(ConfigurationError):
        ring.lookup(b"k", start_name="ghost")


def test_chord_hash_deterministic():
    """Chord places nodes with the ring's 64-bit key hash."""
    ring = ChordRing(names(4))
    assert sorted(ring.nodes) == sorted(hash_key(name.encode())
                                        for name in names(4))
    assert hash_key(b"x") == hash_key(b"x")


def test_full_topology_lookup_searches_one_prebuilt_id_list(monkeypatch):
    """A lookup is a binary search over the id list built once at
    construction, not over a list rebuilt per call."""
    searched, search = [], chord.bisect_right

    def spy(ids, point):
        searched.append(ids)
        return search(ids, point)

    router = FullTopologyRouter(names(64))
    monkeypatch.setattr(chord, "bisect_right", spy)
    router.lookup(b"a")
    router.lookup(b"b")
    assert len(searched) == 2 and searched[0] is searched[1]
