"""Tests for the simulator core: clock, queue, run modes."""

import math

import pytest

from repro.sim import Simulator, SimulationError
from repro.sim.errors import EmptySchedule
from repro.sim.events import PRIORITY_NORMAL, PRIORITY_URGENT


def test_clock_starts_at_initial_time():
    assert Simulator().now == 0.0
    assert Simulator(initial_time=42.5).now == 42.5


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(3.0)
    sim.run()
    assert sim.now == 3.0


def test_events_processed_in_time_order():
    sim = Simulator()
    seen = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        seen.append(tag)

    sim.process(waiter(5.0, "late"))
    sim.process(waiter(1.0, "early"))
    sim.process(waiter(3.0, "middle"))
    sim.run()
    assert seen == ["early", "middle", "late"]


def test_ties_processed_in_fifo_order():
    sim = Simulator()
    seen = []

    def waiter(tag):
        yield sim.timeout(2.0)
        seen.append(tag)

    for tag in "abc":
        sim.process(waiter(tag))
    sim.run()
    assert seen == ["a", "b", "c"]


@pytest.mark.parametrize("entries, order, counts", [
    pytest.param(
        [(1.0, PRIORITY_NORMAL, "normal"), (1.0, PRIORITY_URGENT, "urgent")],
        ["urgent", "normal"], [(2, 0), (1, 0)],
        id="urgent-before-normal-at-same-instant",
    ),
    pytest.param(
        [(math.inf, PRIORITY_NORMAL, "horizon"),
         (3.0, PRIORITY_NORMAL, "near"), (1e9, PRIORITY_NORMAL, "far")],
        ["near", "far", "horizon"], [(3, 0), (2, 0), (1, 0)],
        id="inf-pops-after-every-finite-entry",
        # Stepping to the inf entry moves the clock to inf on purpose.
        marks=pytest.mark.no_sanitize,
    ),
    pytest.param(
        [(1.0, PRIORITY_NORMAL, "a"), (2.0, PRIORITY_NORMAL, None),
         (0.5, PRIORITY_NORMAL, None), (3.0, PRIORITY_NORMAL, "b")],
        ["a", "b"], [(4, 2), (2, 1)],
        id="cancelled-entries-counted-until-they-reach-the-head",
    ),
])
def test_queue_order_and_accounting(entries, order, counts):
    """Pop order, and ``(queue_depth, queue_cancelled())`` before each
    step; a ``None`` tag schedules an entry and then cancels it."""
    sim = Simulator()
    seen = []
    for delay, priority, tag in entries:
        event = sim.event()
        event._ok, event._value = True, tag
        event.callbacks.append(lambda e: seen.append(e.value))
        sim.schedule(event, delay=delay, priority=priority)
        if tag is None:
            event.cancel()
    observed = []
    while sim.queue_depth:
        observed.append((sim.queue_depth, sim.queue_cancelled()))
        sim.step()
    assert seen == order
    assert observed == counts
    assert sim.queue_cancelled() == 0


def test_run_until_time_advances_clock_exactly():
    sim = Simulator()
    sim.timeout(100.0)
    sim.run(until=7.0)
    assert sim.now == 7.0
    assert sim.peek() == 100.0


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_event_returns_its_value():
    sim = Simulator()

    def producer():
        yield sim.timeout(2.0)
        return "result"

    proc = sim.process(producer())
    assert sim.run(until=proc) == "result"
    assert sim.now == 2.0


def test_run_until_never_triggered_event_raises():
    sim = Simulator()
    orphan = sim.event()
    sim.timeout(1.0)
    with pytest.raises(SimulationError):
        sim.run(until=orphan)


def test_step_on_empty_queue_raises():
    sim = Simulator()
    with pytest.raises(EmptySchedule):
        sim.step()


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)
    with pytest.raises(ValueError):
        sim.schedule(sim.event(), delay=-0.5)


def test_events_processed_counter():
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(2.0)
    sim.run()
    assert sim.events_processed == 2


def test_peek_empty_queue_is_infinite():
    assert Simulator().peek() == float("inf")


def test_streams_attached_to_simulator_are_deterministic():
    a = Simulator(seed=7)
    b = Simulator(seed=7)
    assert a.streams.get("x").random() == b.streams.get("x").random()
