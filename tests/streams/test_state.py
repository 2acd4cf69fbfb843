"""Keyed state stores, their record cache, and their all-or-nothing
snapshot images."""

import json
import random

import pytest

from repro.common.errors import ConfigurationError
from repro.common.wal import read_image, write_image
from repro.simnet.disk import SimDisk
from repro.streams.state import (
    KeyedStateStore,
    decode_record,
    encode_record,
    load_snapshot,
    write_snapshot,
)


def snapshot(disk, path, store, changelog_offset):
    """What the barrier does: the drained store's records, as they are."""
    write_snapshot(disk, path, store.name, store.records(),
                   changelog_offset)


def test_put_get_delete_roundtrip():
    store = KeyedStateStore("s")
    store.put("a", 1)
    store.put("b", {"x": [1, 2]})
    assert store.get("a") == 1
    assert store.get("b") == {"x": [1, 2]}
    store.delete("a")
    assert store.get("a") is None
    assert "a" not in store
    assert len(store) == 1


def test_none_is_reserved_for_tombstones():
    store = KeyedStateStore("s")
    with pytest.raises(ConfigurationError):
        store.put("a", None)


def test_drain_yields_absolute_values_and_tombstones():
    store = KeyedStateStore("s")
    drained = []
    store.put("a", 1)
    drained += store.drain()
    store.put("a", 2)                # absolute, never a delta
    drained += store.drain()
    store.delete("a")
    drained += store.drain()
    assert [decode_record(r) for r in drained] == \
        [("a", 1), ("a", 2), ("a", None)]


def test_drain_coalesces_to_one_record_per_key_in_first_dirtied_order():
    store = KeyedStateStore("s")
    store.put("b", 1)
    store.put("a", 1)
    store.put("b", 2)                # does not move b behind a
    store.put("c", 1)
    store.delete("c")                # put-then-delete: one tombstone
    store.delete("never-there")
    assert store.drain() == [
        encode_record("b", 2), encode_record("a", 1),
        encode_record("c", None), encode_record("never-there", None)]
    assert store.drain() == []
    assert store.records() == [encode_record("a", 1), encode_record("b", 2)]


def test_apply_does_not_relog():
    store = KeyedStateStore("s")
    assert store.restore([encode_record("a", 5), encode_record("b", 6),
                          encode_record("a", None)]) == 3
    assert store.drain() == []
    assert store.get("a") is None
    assert store.records() == [encode_record("b", 6)]


def test_iteration_is_sorted():
    store = KeyedStateStore("s")
    for key in ("zebra", "apple", "mango"):
        store.put(key, 1)
    assert store.keys() == ["apple", "mango", "zebra"]
    assert [k for k, _ in store.items()] == ["apple", "mango", "zebra"]


def test_range_scans_by_prefix():
    store = KeyedStateStore("s")
    store.put("m1:w01", 3)
    store.put("m1:w02", 5)
    store.put("m2:w01", 7)
    store.put("m1:w00", 1)           # inserted last, sorts first
    assert list(store.range("m1:")) == [
        ("m1:w00", 1), ("m1:w01", 3), ("m1:w02", 5)]
    assert list(store.range("m1:")) == [
        item for item in store.items() if item[0].startswith("m1:")]
    assert list(store.range("nobody:")) == []


def test_fingerprint_excludes_prefix():
    store = KeyedStateStore("s")
    store.put("__seen/x", [3, 1])
    store.put("a", 1)
    full = store.fingerprint()
    filtered = store.fingerprint(exclude_prefix="__seen/")
    assert b"__seen" in full
    assert b"__seen" not in filtered
    assert b'["a",1]' in filtered


def test_snapshot_roundtrip():
    disk = SimDisk(seed=1).scope("n")
    store = KeyedStateStore("views")
    store.put("a", 1)
    store.put("b", [1, "two"])
    drained = store.drain()
    snapshot(disk, "/s/views.snap", store, 123)
    # the image entries are the changelog records, byte for byte
    assert read_image(disk, "/s/views.snap")[1:] == drained
    recovered = KeyedStateStore("views")
    recovered.put("junk", 9)  # must be replaced, not merged
    assert load_snapshot(disk, "/s/views.snap", recovered) == 123
    assert recovered.items() == store.items()
    assert recovered.drain() == []   # the load left nothing to re-log
    assert recovered.records() == drained


def test_undrained_store_cannot_be_snapshotted():
    """Records are cut at drain; an image taken between a put and the
    drain would be stale against the offset in its header."""
    disk = SimDisk(seed=1).scope("n")
    store = KeyedStateStore("views")
    store.put("a", 1)
    with pytest.raises(ConfigurationError):
        snapshot(disk, "/s/views.snap", store, 1)
    assert not disk.exists("/s/views.snap")
    store.drain()
    store.delete("a")
    with pytest.raises(ConfigurationError):
        snapshot(disk, "/s/views.snap", store, 2)


def test_snapshot_missing_and_wrong_store_return_none():
    disk = SimDisk(seed=1).scope("n")
    store = KeyedStateStore("views")
    assert load_snapshot(disk, "/nope", store) is None
    snapshot(disk, "/s/views.snap", store, 1)
    other = KeyedStateStore("other")
    assert load_snapshot(disk, "/s/views.snap", other) is None


def test_snapshot_overwrite_is_atomic_replace():
    disk = SimDisk(seed=1).scope("n")
    store = KeyedStateStore("views")
    store.put("a", 1)
    store.drain()
    snapshot(disk, "/s/views.snap", store, 10)
    store.put("a", 2)
    store.drain()
    snapshot(disk, "/s/views.snap", store, 20)
    recovered = KeyedStateStore("views")
    assert load_snapshot(disk, "/s/views.snap", recovered) == 20
    assert recovered.get("a") == 2
    assert not disk.exists("/s/views.snap.tmp")


def _tear(scope, path, data):
    with scope.open(path, "wb") as f:
        f.write(data[:-20])  # cut the trailer and half of the last entry
        f.fsync()


def _flip(scope, path, data):
    scope.disk.flip_bit(scope.node, path, offset=len(data) // 2, bit=3)


@pytest.mark.parametrize("damage", [_tear, _flip])
def test_damaged_snapshot_is_rejected_entirely_on_every_load(damage):
    """A snapshot with a valid header but torn or corrupt entries must
    not load: half an image plus a replay from the header's offset would
    lose the damaged keys.  Loading must not repair the file into a
    clean prefix either, or the *next* restart would accept it."""
    disk = SimDisk(seed=1).scope("n")
    store = KeyedStateStore("views")
    for i in range(20):
        store.put(f"key-{i:03d}", i)
    store.drain()
    snapshot(disk, "/s/views.snap", store, 99)
    with disk.open("/s/views.snap", "rb") as f:
        data = f.read()
    damage(disk, "/s/views.snap", data)
    with disk.open("/s/views.snap", "rb") as f:
        damaged = f.read()
    for _ in range(2):
        recovered = KeyedStateStore("views")
        assert load_snapshot(disk, "/s/views.snap", recovered) is None
        assert len(recovered) == 0
    with disk.open("/s/views.snap", "rb") as f:
        assert f.read() == damaged  # the load is read-only


@pytest.mark.parametrize("version", [1, 3, None])
def test_other_format_version_is_refused_on_every_load(version):
    """A v1 image (entries in the old whitespace form) or any version
    this code does not write is a *format* mismatch, told apart from
    damage by the header — and refused the same way, every time."""
    disk = SimDisk(seed=1).scope("n")
    header = {"store": "views", "changelog_offset": 7}
    if version is not None:
        header["version"] = version
    write_image(disk, "/s/views.snap", [
        json.dumps(header, sort_keys=True).encode(),
        json.dumps({"k": "a", "v": 1}, sort_keys=True).encode()])
    for _ in range(2):
        recovered = KeyedStateStore("views")
        recovered.restore([encode_record("kept", 1)])
        assert load_snapshot(disk, "/s/views.snap", recovered) is None
        assert recovered.items() == [("kept", 1)]   # refused before clear


# -- the record cache ------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_record_cache_equals_a_fresh_encode_after_every_drain(seed):
    """Seeded walk over every path that touches the cache: after each
    drain the cached records equal a fresh encode of ``items()`` entry
    for entry (so a deleted key has none), and a second drain is empty —
    whether the store got its state from puts, an image or a replay."""
    rng = random.Random(seed)
    disk = SimDisk(seed=seed).scope("n")
    store = KeyedStateStore("s")
    changelog: list[bytes] = []      # everything drained since a clear

    def drain_and_check():
        changelog.extend(store.drain())
        assert store.drain() == []
        assert store.records() == [encode_record(key, value)
                                   for key, value in store.items()]

    for step in range(300):
        op = rng.choice(("put", "put", "put", "delete", "delete", "drain",
                         "snapshot", "replay", "clear"))
        key = f"k{rng.randrange(10)}"
        if op == "put":
            store.put(key, {"n": rng.randrange(100), "at": [step, key]})
        elif op == "delete":
            store.delete(key)
        elif op == "drain":
            drain_and_check()
        elif op == "clear":
            store.clear()
            changelog.clear()
            drain_and_check()
        else:
            drain_and_check()
            successor = KeyedStateStore("s")
            successor.put("junk", step)
            if op == "snapshot":
                snapshot(disk, "/s.snap", store, step)
                assert load_snapshot(disk, "/s.snap", successor) == step
            else:
                successor.clear()
                successor.restore(changelog)
            assert successor.items() == store.items()
            store = successor
            drain_and_check()
