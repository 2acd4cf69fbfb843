"""The auditor: certified cuts, tick dedup, metering, reports."""

import json

import pytest

from repro.audit import (
    Auditor,
    BlameEngine,
    CountConservation,
    KeySetContainment,
    Lineage,
    ViolationInjector,
    WatermarkCut,
    reconcile,
)
from repro.audit.engine import VIOLATIONS_FAMILY
from repro.audit.wiring import search_containment
from repro.common.clock import SimClock
from repro.common.errors import ConfigurationError, NonConvergenceError
from repro.common.metrics import MetricsRegistry
from repro.databus import Relay, capture_from_binlog
from repro.search import MEMBER_TABLE, PeopleSearchService
from repro.simnet.disk import SimDisk
from repro.simnet.faultplan import FaultPlan
from repro.sqlstore import SqlDatabase


@pytest.fixture
def clock():
    return SimClock()


def make_pipeline(clock):
    """A real sqlstore -> relay -> consumer pipeline for cut tests."""
    db = SqlDatabase("members", clock=clock)
    db.create_table(MEMBER_TABLE)
    relay = Relay()
    capture = capture_from_binlog(db, relay)
    service = PeopleSearchService(relay)
    return db, relay, capture, service


def upsert(db, member_id, name):
    db.autocommit("member_profile",
                  {"member_id": member_id, "name": name,
                   "headline": "x", "industry": "y"})


# -- WatermarkCut ------------------------------------------------------------

def test_certify_pumps_until_the_watermark_passes(clock):
    db, relay, capture, service = make_pipeline(clock)
    upsert(db, 1, "a")
    upsert(db, 2, "b")

    def pump():
        capture.poll()
        service.client.poll()

    cut = WatermarkCut(db, pump, [lambda: service.client.checkpoint])
    scn = cut.certify()
    assert scn == db.last_committed_scn
    assert service.client.checkpoint >= scn
    assert cut.cuts_certified == 1 and cut.last_scn == scn
    # every committed row had to flow through before certification
    assert service.documents_indexed == 2


def test_certify_fails_loudly_when_the_pipeline_is_wedged(clock):
    db, relay, capture, service = make_pipeline(clock)
    upsert(db, 1, "a")
    cut = WatermarkCut(db, pump=lambda: None,
                       positions=[lambda: service.client.checkpoint],
                       max_rounds=5)
    with pytest.raises(NonConvergenceError):
        cut.certify()


def test_cut_validation():
    db = SqlDatabase("d", clock=SimClock())
    with pytest.raises(ConfigurationError):
        WatermarkCut(db, lambda: None, positions=[])
    with pytest.raises(ConfigurationError):
        WatermarkCut(db, lambda: None, positions=[lambda: 0], max_rounds=0)


# -- Auditor ticks -----------------------------------------------------------

def failing_constraint(name="c", bucket=("t", 0)):
    return CountConservation(name, "kafka:t",
                             produced=lambda: {bucket: 5},
                             consumed=lambda: {bucket: 3})


def test_tick_stamps_meters_and_returns_fresh_findings(clock):
    clock.advance(4.5)
    metrics = MetricsRegistry()
    auditor = Auditor(clock, metrics=metrics)
    auditor.declare(failing_constraint())
    fresh = auditor.tick()
    assert len(fresh) == 1
    assert fresh[0].violation.detected_at == 4.5
    family = metrics.family(VIOLATIONS_FAMILY)
    assert family.value(constraint="c", kind="lost-messages") == 1
    assert metrics.counter("audit.ticks").value == 1


def test_persistent_violation_is_one_finding_not_one_per_tick(clock):
    auditor = Auditor(clock)
    auditor.declare(failing_constraint())
    assert len(auditor.tick()) == 1
    assert auditor.tick() == []
    assert len(auditor.violations) == 1
    # the metric counts findings, not re-sightings
    assert auditor.metrics.family(VIOLATIONS_FAMILY).total() == 1


def test_duplicate_constraint_name_is_rejected(clock):
    auditor = Auditor(clock)
    auditor.declare(failing_constraint("same"))
    with pytest.raises(ConfigurationError):
        auditor.declare(failing_constraint("same"))


def test_tick_attributes_blame_when_an_engine_is_attached(clock):
    blame = BlameEngine()
    blame.register("c", Lineage([("producer", lambda v: True),
                                 ("broker", lambda v: False)]))
    auditor = Auditor(clock, blame=blame)
    auditor.declare(failing_constraint())
    [finding] = auditor.tick()
    assert finding.blame is not None
    assert finding.blame.top == "broker"


def test_run_every_fires_on_the_sim_clock(clock):
    auditor = Auditor(clock)
    auditor.declare(failing_constraint())
    auditor.run_every(0.5, first_at=0.25)
    clock.advance(2.0)
    assert auditor.ticks == 4
    auditor.stop()
    clock.advance(2.0)
    assert auditor.ticks == 4  # stopped: no further fires
    with pytest.raises(ConfigurationError):
        auditor.run_every(0.0)


@pytest.mark.parametrize("tick, latency", [(0.25, 0.15), (1.0, 0.9),
                                           (4.0, 2.9)])
def test_exp_a1_detection_latency_tracks_the_tick_interval(clock, tick,
                                                           latency):
    """A document dropped from the index at t=5.1, just after a tick (the
    worst case), is reported at the next tick."""
    db, relay, capture, service = make_pipeline(clock)
    for member in range(64):
        upsert(db, member, f"m{member}")

    def pump():
        capture.poll()
        service.client.poll()

    pump()
    auditor = Auditor(clock)
    cut = auditor.add_cut(WatermarkCut(
        db, pump, [lambda: service.client.checkpoint]))
    auditor.declare(search_containment(
        "search-containment", db, MEMBER_TABLE.name, service.index,
        horizon=lambda: cut.last_scn))
    plan = FaultPlan(SimDisk(clock=clock))
    injector = ViolationInjector()
    injector.skip_index_update(
        plan, 5.1, service.index, 7, key=(7,),
        constraint="search-containment",
        subject=f"search:{MEMBER_TABLE.name}")
    auditor.run_every(tick)
    plan.run(until=5.1 + 4 * tick + 1.0)
    auditor.stop()
    assert reconcile(injector.planted, auditor.findings).exact
    found = auditor.findings[0].violation
    assert round(found.detected_at - 5.1, 6) == latency


def test_run_every_rejects_double_start(clock):
    auditor = Auditor(clock)
    auditor.run_every(1.0)
    with pytest.raises(ConfigurationError):
        auditor.run_every(1.0)


# -- reports -----------------------------------------------------------------

def test_report_carries_evidence_and_blame(clock):
    blame = BlameEngine()
    blame.register("c", Lineage([("broker", lambda v: False)]))
    auditor = Auditor(clock, blame=blame)
    auditor.declare(failing_constraint())
    auditor.tick()
    report = auditor.report()
    assert report["constraints"] == ["c"]
    assert report["ticks"] == 1
    [entry] = report["violations"]
    assert entry["kind"] == "lost-messages"
    assert entry["blame"]["top"] == "broker"
    assert entry["blame"]["evidence"][0]["ok"] is False


def test_report_bytes_is_canonical_json(clock):
    auditor = Auditor(clock)
    auditor.declare(failing_constraint())
    auditor.tick()
    first = auditor.report_bytes()
    assert first == auditor.report_bytes()
    assert json.loads(first) == auditor.report()


def test_report_orders_violations_not_by_discovery(clock):
    auditor = Auditor(clock)
    auditor.declare(failing_constraint("zz"))
    auditor.declare(failing_constraint("aa"))
    auditor.tick()
    names = [entry["constraint"] for entry in auditor.report()["violations"]]
    assert names == ["aa", "zz"]
