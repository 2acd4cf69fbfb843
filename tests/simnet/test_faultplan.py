from repro.common.clock import SimClock
from repro.simnet.disk import SimDisk
from repro.simnet.faultplan import FaultPlan


def test_a_second_run_fires_only_what_was_added_since():
    clock = SimClock()
    plan = FaultPlan(clock, SimDisk(clock=clock))
    calls = []
    plan.call(1.0, "x", lambda: calls.append("x"))
    # the horizon is max(until, last action): this run already reaches 1.0
    assert plan.run(until=0.5) == [(1.0, "call", "", "x")]
    assert clock.now() == 1.0
    plan.call(1.5, "y", lambda: calls.append("y"))
    plan.run(until=2.0)
    assert calls == ["x", "y"]
    assert plan.trace_lines() == ["(1.0, 'call', '', 'x')",
                                  "(1.5, 'call', '', 'y')"]
    assert clock.now() == 2.0
