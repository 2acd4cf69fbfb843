"""Bootstrap server: log/snapshot storage, deltas, consistent snapshots."""

import pytest

from repro.common.errors import ConfigurationError
from repro.databus import BootstrapServer
from repro.databus.events import DatabusEvent
from repro.sqlstore.binlog import ChangeKind
from repro.workloads import ZipfGenerator


def event(scn, key=(1,), end=True, source="member", payload=b"p"):
    return DatabusEvent(scn, source, ChangeKind.UPDATE, key, payload,
                        end_of_window=end)


@pytest.fixture
def bootstrap():
    return BootstrapServer()


def feed(bootstrap, *scn_key_pairs):
    for scn, key in scn_key_pairs:
        bootstrap.on_events([event(scn, key=key)])


def test_log_and_snapshot_grow(bootstrap):
    feed(bootstrap, (1, (1,)), (2, (2,)), (3, (1,)))
    assert bootstrap.log_length == 3
    assert bootstrap.snapshot_rows == 2  # key (1,) folded
    assert bootstrap.high_watermark == 3


def test_out_of_order_rejected(bootstrap):
    feed(bootstrap, (5, (1,)))
    with pytest.raises(ConfigurationError):
        bootstrap.on_events([event(3)])


def test_consolidated_delta_folds_hot_rows(bootstrap):
    # 10 updates to one hot row, 1 update to another
    for scn in range(1, 11):
        bootstrap.on_events([event(scn, key=(1,))])
    bootstrap.on_events([event(11, key=(2,))])
    delta, watermark = bootstrap.consolidated_delta(since_scn=0)
    assert watermark == 11
    assert len(delta) == 2  # one per row, not eleven
    assert {e.key for e in delta} == {(1,), (2,)}
    assert max(e.scn for e in delta) == 11


def test_full_replay_returns_everything(bootstrap):
    for scn in range(1, 11):
        bootstrap.on_events([event(scn, key=(1,))])
    replay, _ = bootstrap.full_replay(since_scn=0)
    assert len(replay) == 10


def test_delta_respects_since_scn(bootstrap):
    feed(bootstrap, (1, (1,)), (2, (2,)), (3, (3,)))
    delta, _ = bootstrap.consolidated_delta(since_scn=2)
    assert [e.key for e in delta] == [(3,)]


def test_delta_with_filter(bootstrap):
    from repro.databus import source_filter
    bootstrap.on_events([event(1, key=(1,), source="member")])
    bootstrap.on_events([event(2, key=(1,), source="position")])
    delta, _ = bootstrap.consolidated_delta(0, source_filter("position"))
    assert [e.source for e in delta] == ["position"]


def test_partial_window_not_applied_until_closed(bootstrap):
    bootstrap.on_events([event(1, key=(1,), end=False)])
    assert bootstrap.snapshot_rows == 0
    assert bootstrap.high_watermark == 0
    bootstrap.on_events([event(1, key=(2,), end=True)])
    assert bootstrap.snapshot_rows == 2
    assert bootstrap.high_watermark == 1


def test_consistent_snapshot_basic(bootstrap):
    feed(bootstrap, (1, (1,)), (2, (2,)))
    items = list(bootstrap.consistent_snapshot())
    rows = [i for kind, i in items if kind == "row"]
    assert {e.key for e in rows} == {(1,), (2,)}
    assert items[-1] == ("scn", 2)


def test_consistent_snapshot_replays_concurrent_writes(bootstrap):
    feed(bootstrap, (1, (1,)), (2, (2,)))
    stream = bootstrap.consistent_snapshot()
    kind, first_row = next(stream)
    assert kind == "row"
    # a write lands while the snapshot is being served
    bootstrap.on_events([event(3, key=(9,))])
    rest = list(stream)
    replays = [i for kind, i in rest if kind == "replay"]
    assert [e.key for e in replays] == [(9,)]
    assert rest[-1] == ("scn", 3)


def test_snapshot_with_filter(bootstrap):
    from repro.databus import source_filter
    bootstrap.on_events([event(1, key=(1,), source="member")])
    bootstrap.on_events([event(2, key=(1,), source="position")])
    items = list(bootstrap.consistent_snapshot(source_filter("member")))
    rows = [i for kind, i in items if kind == "row"]
    assert len(rows) == 1
    assert rows[0].source == "member"


def test_delta_playback_factor_grows_with_skew(bootstrap):
    """The 'fast playback' effect: skewed updates make the delta much
    smaller than the log."""
    hot_updates = 200
    for scn in range(1, hot_updates + 1):
        bootstrap.on_events([event(scn, key=(scn % 5,))])
    delta, _ = bootstrap.consolidated_delta(0)
    replay, _ = bootstrap.full_replay(0)
    assert len(replay) == hot_updates
    assert len(delta) == 5
    assert len(replay) / len(delta) == 40


def zipf_fed(bootstrap, updates, distinct_rows, skew):
    keygen = ZipfGenerator(distinct_rows, theta=skew, seed=1)
    feed(bootstrap, *((scn, (keygen.next(),))
                      for scn in range(1, updates + 1)))
    return bootstrap


def test_exp_d2_playback_factor_by_update_skew():
    # 4 000 updates over 500 rows; the delta is one event per touched row
    factors = {}
    for skew in (0.0, 0.8, 1.2):
        bootstrap = zipf_fed(BootstrapServer(), 4000, 500, skew)
        delta, _ = bootstrap.consolidated_delta(0)
        assert len(delta) == len({e.key for e in bootstrap.full_replay(0)[0]})
        factors[skew] = round(4000 / len(delta), 1)
    assert factors == {0.0: 8.0, 0.8: 8.4, 1.2: 11.0}


def test_fig_iii3_snapshot_for_new_clients_delta_sized_by_lag(bootstrap):
    zipf_fed(bootstrap, 3000, 400, 0.9)
    rows = sum(kind == "row" for kind, _ in bootstrap.consistent_snapshot())
    near_head, _ = bootstrap.consolidated_delta(2900)
    from_zero, _ = bootstrap.consolidated_delta(0)
    assert (rows, len(near_head), len(from_zero)) == (366, 57, 366)
