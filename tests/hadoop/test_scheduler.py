"""The central workflow scheduler: DAGs, retries, recurring runs."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import ConfigurationError
from repro.hadoop.scheduler import (
    JobStatus,
    Workflow,
    WorkflowJob,
    WorkflowScheduler,
)


def ok(name, depends_on=(), result=None):
    return WorkflowJob(name, lambda ctx: result or name, depends_on)


class TestWorkflowValidation:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Workflow("w", [])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            Workflow("w", [ok("a"), ok("a")])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ConfigurationError):
            Workflow("w", [WorkflowJob("a", lambda c: None, ("ghost",))])

    def test_cycle_rejected(self):
        with pytest.raises(ConfigurationError):
            Workflow("w", [
                WorkflowJob("a", lambda c: None, ("b",)),
                WorkflowJob("b", lambda c: None, ("a",)),
            ])

    def test_topological_order_respects_dependencies(self):
        workflow = Workflow("w", [
            WorkflowJob("load", lambda c: None, ("score", "extract")),
            ok("extract"),
            WorkflowJob("score", lambda c: None, ("extract",)),
        ])
        order = workflow.order
        assert order.index("extract") < order.index("score") < order.index("load")


class TestExecution:
    def test_results_flow_through_context(self):
        trace = []
        workflow = Workflow("w", [
            WorkflowJob("extract", lambda c: [1, 2, 3]),
            WorkflowJob("score", lambda c: sum(c["extract"]), ("extract",)),
        ])
        run = WorkflowScheduler().run_workflow(workflow)
        assert run.succeeded
        assert run.job_runs["score"].result == 6

    def test_failure_skips_dependents(self):
        def boom(ctx):
            raise RuntimeError("bad data")

        workflow = Workflow("w", [
            WorkflowJob("extract", boom),
            WorkflowJob("score", lambda c: 1, ("extract",)),
            ok("independent"),
        ])
        run = WorkflowScheduler().run_workflow(workflow)
        assert not run.succeeded
        assert run.status_of("extract") is JobStatus.FAILED
        assert run.status_of("score") is JobStatus.SKIPPED
        assert run.status_of("independent") is JobStatus.SUCCEEDED
        assert "bad data" in run.job_runs["extract"].error

    def test_retries(self):
        attempts = {"n": 0}

        def flaky(ctx):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RuntimeError("transient")
            return "done"

        workflow = Workflow("w", [WorkflowJob("flaky", flaky, max_retries=3)])
        run = WorkflowScheduler().run_workflow(workflow)
        assert run.succeeded
        assert run.job_runs["flaky"].attempts == 3

    def test_retries_exhausted(self):
        def always(ctx):
            raise RuntimeError("permanent")

        workflow = Workflow("w", [WorkflowJob("j", always, max_retries=2)])
        run = WorkflowScheduler().run_workflow(workflow)
        assert run.status_of("j") is JobStatus.FAILED
        assert run.job_runs["j"].attempts == 3


class TestSchedule:
    def test_recurring_runs(self):
        clock = SimClock()
        scheduler = WorkflowScheduler(clock)
        workflow = Workflow("hourly", [ok("job")])
        scheduler.schedule(workflow, every_seconds=3600)
        clock.advance(3 * 3600 + 1)
        assert len(scheduler.runs_of("hourly")) == 3
        assert [r.started_at for r in scheduler.runs_of("hourly")] == \
            [3600.0, 7200.0, 10800.0]

    def test_unschedule_stops_runs(self):
        clock = SimClock()
        scheduler = WorkflowScheduler(clock)
        workflow = Workflow("daily", [ok("job")])
        scheduler.schedule(workflow, every_seconds=10)
        clock.advance(25)
        scheduler.unschedule("daily")
        clock.advance(100)
        assert len(scheduler.runs_of("daily")) == 2

    def test_double_schedule_rejected(self):
        scheduler = WorkflowScheduler(SimClock())
        workflow = Workflow("w", [ok("j")])
        scheduler.schedule(workflow, 10)
        with pytest.raises(ConfigurationError):
            scheduler.schedule(workflow, 20)

    def test_interval_validation(self):
        scheduler = WorkflowScheduler(SimClock())
        with pytest.raises(ConfigurationError):
            scheduler.schedule(Workflow("w", [ok("j")]), 0)

    def test_context_factory_per_run(self):
        clock = SimClock()
        scheduler = WorkflowScheduler(clock)
        counter = {"n": 0}

        def fresh_context():
            counter["n"] += 1
            return {"run_number": counter["n"]}

        workflow = Workflow("w", [
            WorkflowJob("read", lambda c: c["run_number"])])
        scheduler.schedule(workflow, 10, context_factory=fresh_context)
        clock.advance(25)
        results = [r.job_runs["read"].result for r in scheduler.runs_of("w")]
        assert results == [1, 2]


def test_pymk_refresh_workflow_integration():
    """The production shape: a scheduled workflow that rescoren PYMK
    and redeploys the read-only store every 'day'."""
    from repro.hadoop import MiniHDFS
    from repro.recommendations import PymkPipeline
    from repro.simnet import SimDisk
    from repro.socialgraph import PartitionedSocialGraph
    from repro.voldemort import RoutedStore, StoreDefinition, VoldemortCluster

    clock = SimClock()
    cluster = VoldemortCluster(num_nodes=2, partitions_per_node=4,
                               clock=clock, disk=SimDisk(clock=clock))
    cluster.define_store(StoreDefinition(
        "pymk", 1, 1, 1, engine_type="read-only"))
    pipeline = PymkPipeline(cluster, MiniHDFS(), k=5)
    graph = PartitionedSocialGraph(4)
    graph.connect(1, 2)
    graph.connect(1, 3)

    workflow = Workflow("pymk-refresh", [
        WorkflowJob("score-and-deploy", lambda ctx: pipeline.run(graph))])
    scheduler = WorkflowScheduler(clock)
    scheduler.schedule(workflow, every_seconds=86_400)
    clock.advance(86_400 + 1)
    assert pipeline.runs == 1
    routed = RoutedStore(cluster, "pymk")
    assert pipeline.recommendations_for(routed, 2)
    # the graph grows; the next day's run picks it up
    graph.connect(1, 4)
    clock.advance(86_400)
    assert pipeline.runs == 2
    assert {c for c, _ in pipeline.recommendations_for(routed, 2)} == {3, 4}
