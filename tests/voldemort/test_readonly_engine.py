"""Read-only engine: index format, binary search, swap/rollback, and
what a crash mid-pull or mid-swap leaves serving."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError, KeyNotFoundError
from repro.simnet.disk import SimDisk, _SimFile
from repro.voldemort.engines import ReadOnlyStorageEngine, build_store_files
from repro.voldemort.engines.readonly import (
    DATA_FILE,
    INDEX_ENTRY,
    INDEX_FILE,
    build_index,
    write_version_dir,
)

NODE = "node-0"


@pytest.fixture
def disk():
    return SimDisk(seed=5)


def write_version(disk, version, pairs):
    write_version_dir(disk.scope(NODE), "store", version,
                      *build_store_files(pairs))


def make_engine(disk, pairs, version=1):
    write_version(disk, version, pairs)
    return ReadOnlyStorageEngine("store", disk.scope(NODE))


def test_build_files_sorted_by_md5():
    pairs = [(f"key-{i}".encode(), b"v") for i in range(50)]
    index, data = build_store_files(pairs)
    assert len(index) == 50 * INDEX_ENTRY.size
    digests = [index[i * 24:i * 24 + 16] for i in range(50)]
    assert digests == sorted(digests)


def test_duplicate_keys_rejected_at_build():
    with pytest.raises(ConfigurationError):
        build_store_files([(b"k", b"1"), (b"k", b"2")])


def test_get_all_keys(disk):
    pairs = [(f"member-{i}".encode(), f"value-{i}".encode()) for i in range(200)]
    engine = make_engine(disk, pairs)
    for key, value in pairs:
        assert engine.get(key)[0].value == value
    engine.close()


def test_missing_key(disk):
    engine = make_engine(disk, [(b"present", b"v")])
    with pytest.raises(KeyNotFoundError):
        engine.get(b"absent")
    engine.close()


def test_empty_store(disk):
    engine = make_engine(disk, [])
    assert engine.entry_count == 0
    with pytest.raises(KeyNotFoundError):
        engine.get(b"anything")
    engine.close()


def test_put_rejected(disk):
    engine = make_engine(disk, [(b"k", b"v")])
    from repro.voldemort.versioned import Versioned
    with pytest.raises(ConfigurationError):
        engine.put(b"k", Versioned.initial(b"x", 1))
    engine.close()


def test_swap_to_new_version(disk):
    engine = make_engine(disk, [(b"k", b"old")], version=1)
    write_version(disk, 2, [(b"k", b"new")])
    engine.swap(2)
    assert engine.get(b"k")[0].value == b"new"
    assert engine.current_version == 2
    engine.close()


def test_rollback_restores_previous(disk):
    engine = make_engine(disk, [(b"k", b"v1")], version=1)
    write_version(disk, 2, [(b"k", b"v2")])
    engine.swap(2)
    restored = engine.rollback()
    assert restored == 1
    assert engine.get(b"k")[0].value == b"v1"
    engine.close()


def test_rollback_without_older_version_fails(disk):
    engine = make_engine(disk, [(b"k", b"v")])
    with pytest.raises(ConfigurationError):
        engine.rollback()
    engine.close()


def test_opens_latest_version_on_start(disk):
    for version, value in ((1, b"a"), (3, b"c"), (2, b"b")):
        write_version(disk, version, [(b"k", value)])
    engine = ReadOnlyStorageEngine("store", disk.scope(NODE))
    assert engine.current_version == 3
    assert engine.get(b"k")[0].value == b"c"
    engine.close()


def test_incomplete_version_rejected(disk):
    node = disk.scope(NODE)
    with node.open(f"store/version-1/{DATA_FILE}", "wb") as f:
        f.write(b"")
    with pytest.raises(ConfigurationError):
        ReadOnlyStorageEngine("store", node).swap(1)


def test_delete_version(disk):
    engine = make_engine(disk, [(b"k", b"v1")], version=1)
    write_version(disk, 2, [(b"k", b"v2")])
    engine.swap(2)
    engine.delete_version(1)
    assert engine.versions_on_disk() == [2]
    with pytest.raises(ConfigurationError):
        engine.delete_version(2)
    engine.close()


def test_keys_iteration(disk):
    pairs = [(f"k{i}".encode(), b"v") for i in range(10)]
    engine = make_engine(disk, pairs)
    assert sorted(engine.keys()) == sorted(k for k, _ in pairs)
    engine.close()


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.binary(min_size=1, max_size=32),
                       st.binary(max_size=128), min_size=1, max_size=50))
def test_readonly_roundtrip_property(mapping):
    engine = make_engine(SimDisk(), mapping.items())
    try:
        for key, value in mapping.items():
            assert engine.get(key)[0].value == value
    finally:
        engine.close()


# -- crashes ------------------------------------------------------------------

def test_restart_serves_the_swapped_version_not_the_newest(disk):
    engine = make_engine(disk, [(b"k", b"v1")], version=1)
    write_version(disk, 2, [(b"k", b"v2")])
    engine.swap(2)
    assert engine.rollback() == 1
    disk.crash_node(NODE)
    reopened = ReadOnlyStorageEngine("store", disk.scope(NODE))
    assert reopened.versions_on_disk() == [1, 2]
    assert reopened.current_version == 1
    assert reopened.get(b"k")[0].value == b"v1"


class _Crash(Exception):
    pass


def _dies_on_call(real, n):
    """``real``, except that its ``n``-th call raises instead."""
    calls = itertools.count(1)

    def call(*args, **kwargs):
        if next(calls) == n:
            raise _Crash
        return real(*args, **kwargs)
    return call


# where the kill lands while version 2 is pulled over a served version 1
PULL_POINTS = {
    "data-unsynced": (_SimFile, "fsync", 1),    # data written, not fsynced
    "index-unsynced": (_SimFile, "fsync", 2),   # data durable, index not
    "before-rename": (SimDisk, "replace", 1),   # both durable, unpublished
    "done": None,
}


def _published_indexes_match_their_data(node):
    engine = ReadOnlyStorageEngine("store", node)
    for version in engine.versions_on_disk():
        with node.open(f"store/version-{version}/{DATA_FILE}", "rb") as f:
            data = f.read()
        with node.open(f"store/version-{version}/{INDEX_FILE}", "rb") as f:
            assert f.read() == build_index(data)
    return engine


@pytest.mark.parametrize("torn", [False, True], ids=["lost-tail", "torn"])
@pytest.mark.parametrize("point", list(PULL_POINTS))
def test_a_kill_mid_pull_leaves_the_previous_version_serving(
        disk, monkeypatch, point, torn):
    node = disk.scope(NODE)
    make_engine(disk, [(b"k", b"v1")], version=1).swap(1)
    if torn:
        disk.arm_torn_write(NODE)
    with monkeypatch.context() as patch:
        if PULL_POINTS[point] is not None:
            owner, name, n = PULL_POINTS[point]
            patch.setattr(owner, name, _dies_on_call(getattr(owner, name), n))
        try:
            write_version(disk, 2, [(b"k", b"v2"), (b"k2", b"x" * 64)])
        except _Crash:
            pass
    disk.crash_node(NODE)

    engine = _published_indexes_match_their_data(node)
    assert engine.versions_on_disk() == ([1, 2] if point == "done" else [1])
    assert engine.current_version == 1   # the swap record, not the newest
    assert engine.get(b"k")[0].value == b"v1"

    # the pull retries cleanly over whatever the kill left behind
    write_version(disk, 2, [(b"k", b"v2"), (b"k2", b"x" * 64)])
    engine.swap(2)
    disk.crash_node(NODE)
    engine = _published_indexes_match_their_data(node)
    assert engine.current_version == 2
    assert engine.get(b"k2")[0].value == b"x" * 64


@pytest.mark.parametrize("point", ["before-fsync", "before-rename", "done"])
def test_a_kill_mid_swap_serves_old_or_new(disk, monkeypatch, point):
    engine = make_engine(disk, [(b"k", b"v1")], version=1)
    engine.swap(1)
    write_version(disk, 2, [(b"k", b"v2")])
    with monkeypatch.context() as patch:
        if point == "before-fsync":
            patch.setattr(_SimFile, "fsync", _dies_on_call(_SimFile.fsync, 1))
        elif point == "before-rename":
            patch.setattr(SimDisk, "replace", _dies_on_call(SimDisk.replace, 1))
        try:
            engine.swap(2)
        except _Crash:
            pass
    disk.crash_node(NODE)
    reopened = ReadOnlyStorageEngine("store", disk.scope(NODE))
    assert reopened.current_version == (2 if point == "done" else 1)
