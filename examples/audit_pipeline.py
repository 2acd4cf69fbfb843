#!/usr/bin/env python3
"""The continuous consistency auditor (§V.D generalized, DESIGN.md §14).

The paper's Kafka audit trail counts messages across a pipeline and
compares claims with observations.  This walkthrough generalizes that
idea to declared constraints over any derived-data path:

1. build a source-of-truth SQL table feeding a search index through
   Databus,
2. declare a key-set containment constraint over a watermark-certified
   cut and register the pipeline's blame lineage,
3. tick the auditor on a clean pipeline (quiet),
4. plant two seeded corruptions through a fault plan — a relay window
   silently dropped, an index update silently skipped,
5. watch the auditor catch both, blame the true stage for each, and
   score itself against the injection ground truth.

Run:  python examples/audit_pipeline.py
"""

from repro.audit import (
    Auditor,
    BlameEngine,
    ViolationInjector,
    WatermarkCut,
    reconcile,
)
from repro.audit.blame import STAGE_INDEXER
from repro.audit.wiring import search_containment, sqlstore_pipeline_lineage
from repro.common.clock import SimClock
from repro.databus import Relay, capture_from_binlog
from repro.search import MEMBER_TABLE, PeopleSearchService
from repro.simnet.disk import SimDisk
from repro.simnet.faultplan import FaultPlan
from repro.sqlstore import SqlDatabase

MEMBERS = 12


def main() -> None:
    clock = SimClock()
    disk = SimDisk(clock=clock, seed=11)

    # -- the pipeline: sqlstore -> Databus relay -> search index ----------
    source = SqlDatabase("members", clock=clock)
    source.create_table(MEMBER_TABLE)
    relay = Relay("audit-demo-relay")
    capture = capture_from_binlog(source, relay)
    search = PeopleSearchService(relay)
    for i in range(MEMBERS):
        source.autocommit(MEMBER_TABLE.name,
                          {"member_id": i, "name": f"member-{i}",
                           "headline": f"engineer {i}",
                           "industry": "software"})
    capture.poll()
    print(f"pipeline up: {MEMBERS} profiles committed, relay loaded")

    # -- declare the invariant and its lineage ----------------------------
    def pump():
        capture.poll()
        search.client.poll()

    blame = BlameEngine()
    blame.register("search-containment", sqlstore_pipeline_lineage(
        source, MEMBER_TABLE.name, capture, relay, search.client,
        store_check=lambda key: key[0] in search.index,
        store_stage=STAGE_INDEXER))

    auditor = Auditor(clock, blame=blame)
    cut = auditor.add_cut(WatermarkCut(
        source, pump, positions=[lambda: search.client.checkpoint]))
    auditor.declare(search_containment(
        "search-containment", source, MEMBER_TABLE.name, search.index,
        horizon=lambda: cut.last_scn))

    # -- a clean tick: certified cut, zero violations ---------------------
    findings = auditor.tick()
    print(f"clean tick: cut certified at SCN {cut.last_scn}, "
          f"{len(findings)} violations (indexed "
          f"{search.documents_indexed} documents)")

    # -- plant two corruptions through the fault plan ---------------------
    plan = FaultPlan(disk)
    injector = ViolationInjector()
    victim = source.autocommit(MEMBER_TABLE.name,
                               {"member_id": 100, "name": "victim",
                                "headline": "never indexed",
                                "industry": "software"})
    capture.poll()
    injector.drop_relay_window(
        plan, 1.0, relay, victim, constraint="search-containment",
        subject=f"search:{MEMBER_TABLE.name}", key=(100,))
    injector.skip_index_update(
        plan, 1.0, search.index, 3, key=(3,),
        constraint="search-containment",
        subject=f"search:{MEMBER_TABLE.name}")
    auditor.run_every(0.5, first_at=1.25)
    plan.run(until=3.0)
    auditor.stop()
    print(f"fault plan done: {len(injector.planted)} corruptions planted "
          f"(a dropped relay window, a skipped index update)")

    # -- the auditor's verdict -------------------------------------------
    for finding in auditor.findings:
        violation = finding.violation
        print(f"  caught: {violation.render()}")
        print(f"    blamed stage: {finding.blame.top} "
              f"(ranking {[s for s, _ in finding.blame.ranking][:2]}...)")

    audit = reconcile(injector.planted, auditor.findings)
    print(f"score card: {audit.summary()}")
    assert audit.exact and audit.blame_accuracy == 1.0
    print("the auditor caught exactly what was planted, "
          "and named the guilty stage for both")


if __name__ == "__main__":
    main()
