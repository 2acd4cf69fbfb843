"""Keyed state stores and their all-or-nothing snapshot images."""

import pytest

from repro.common.errors import ConfigurationError
from repro.simnet.disk import SimDisk
from repro.streams.state import KeyedStateStore, load_snapshot, write_snapshot


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


def test_mutation_hook_sees_absolute_values_and_tombstones():
    logged = []
    store = KeyedStateStore("s", on_mutation=lambda k, v: logged.append((k, v)))
    store.put("a", 1)
    store.put("a", 2)
    store.delete("a")
    assert logged == [("a", 1), ("a", 2), ("a", None)]


def test_apply_does_not_relog():
    logged = []
    store = KeyedStateStore("s", on_mutation=lambda k, v: logged.append((k, v)))
    store.apply("a", 5)
    store.apply("a", None)
    assert logged == []
    assert store.get("a") is None


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
    assert list(store.range("m1:")) == [("m1:w01", 3), ("m1:w02", 5)]


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
    assert write_snapshot(disk, "/s/views.snap", store, 123) == 2
    recovered = KeyedStateStore("views")
    recovered.put("junk", 9)  # must be replaced, not merged
    assert load_snapshot(disk, "/s/views.snap", recovered) == 123
    assert recovered.items() == store.items()


def test_snapshot_missing_and_wrong_store_return_none():
    disk = SimDisk(seed=1).scope("n")
    store = KeyedStateStore("views")
    assert load_snapshot(disk, "/nope", store) is None
    write_snapshot(disk, "/s/views.snap", store, 1)
    other = KeyedStateStore("other")
    assert load_snapshot(disk, "/s/views.snap", other) is None


def test_snapshot_overwrite_is_atomic_replace():
    disk = SimDisk(seed=1).scope("n")
    store = KeyedStateStore("views")
    store.put("a", 1)
    write_snapshot(disk, "/s/views.snap", store, 10)
    store.put("a", 2)
    write_snapshot(disk, "/s/views.snap", store, 20)
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
    write_snapshot(disk, "/s/views.snap", store, 99)
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
