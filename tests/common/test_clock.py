"""SimClock discrete-event semantics."""

import pytest

from repro.common.clock import SimClock, WallClock


def test_wall_clock_advances():
    clock = WallClock()
    a = clock.now()
    clock.sleep(0.001)
    assert clock.now() >= a


def test_sim_clock_starts_at_zero():
    assert SimClock().now() == 0.0


def test_events_fire_in_timestamp_order():
    clock = SimClock()
    fired = []
    clock.call_at(2.0, lambda: fired.append("b"))
    clock.call_at(1.0, lambda: fired.append("a"))
    clock.call_at(3.0, lambda: fired.append("c"))
    clock.advance(2.5)
    assert fired == ["a", "b"]
    clock.advance(1.0)
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_scheduling_order():
    clock = SimClock()
    fired = []
    clock.call_at(1.0, lambda: fired.append(1))
    clock.call_at(1.0, lambda: fired.append(2))
    clock.advance(1.0)
    assert fired == [1, 2]


def test_callbacks_can_schedule_more_events():
    clock = SimClock()
    fired = []

    def chain():
        fired.append(clock.now())
        if len(fired) < 3:
            clock.call_later(1.0, chain)

    clock.call_later(1.0, chain)
    clock.advance(10.0)
    assert fired == [1.0, 2.0, 3.0]


def test_cancelled_events_do_not_fire():
    clock = SimClock()
    fired = []
    event = clock.call_at(1.0, lambda: fired.append("x"))
    SimClock.cancel(event)
    clock.advance(2.0)
    assert fired == []
    assert clock.pending_events == 0


def test_cannot_schedule_in_the_past():
    clock = SimClock(start=10.0)
    with pytest.raises(ValueError):
        clock.call_at(5.0, lambda: None)


def test_negative_sleep_rejected():
    with pytest.raises(ValueError):
        SimClock().sleep(-1)


def test_run_all_guards_against_infinite_loops():
    clock = SimClock()

    def forever():
        clock.call_later(1.0, forever)

    clock.call_later(1.0, forever)
    with pytest.raises(RuntimeError):
        clock.run_all(limit=50)


def test_run_all_drains_a_queue_of_exactly_limit_events():
    clock = SimClock()
    fired = []
    for i in range(5):
        clock.call_later(0, lambda i=i: fired.append(i))
    clock.cancel(clock.call_later(1.0, lambda: fired.append("cancelled")))
    clock.run_all(limit=5)
    assert fired == [0, 1, 2, 3, 4]
    assert clock.pending_events == 0


def test_sleep_advances_sim_time_and_fires_events():
    clock = SimClock()
    fired = []
    clock.call_at(0.5, lambda: fired.append(clock.now()))
    clock.sleep(1.0)
    assert clock.now() == 1.0
    assert fired == [0.5]
