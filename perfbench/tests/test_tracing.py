"""Self-time arithmetic of the span tracer on sync and generator code."""

import types

import pytest

from tracing import Tracer


def self_total(tracer):
    """Wall time covered by any span."""
    return sum(self_s for _, _, self_s in tracer.totals().values())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def test_nested_sync_spans_subtract_children(clock):
    tracer = Tracer(clock)

    def inner():
        clock.advance(2.0)
        return "inner"

    inner = tracer.wrap("inner", inner)

    def outer():
        clock.advance(1.0)
        value = inner()
        clock.advance(3.0)
        return value

    outer = tracer.wrap("outer", outer)
    assert outer() == "inner"
    assert outer() == "inner"
    totals = tracer.totals()
    assert totals["outer"] == (2, 12.0, 8.0)
    assert totals["inner"] == (2, 4.0, 4.0)
    assert self_total(tracer) == clock.now


def test_exception_still_closes_the_span(clock):
    tracer = Tracer(clock)

    def failing():
        clock.advance(1.5)
        raise KeyError("boom")

    failing = tracer.wrap("failing", failing)
    with pytest.raises(KeyError):
        failing()
    assert tracer.totals()["failing"] == (1, 1.5, 1.5)
    assert tracer._stack == []


def test_generator_segments_exclude_parked_time(clock):
    tracer = Tracer(clock)

    def child():
        clock.advance(2.0)
        received = yield "wait"
        clock.advance(3.0)
        return received * 2

    child = tracer.wrap("child", child)

    def parent():
        clock.advance(1.0)
        value = yield from child()
        clock.advance(1.0)
        return value

    parent = tracer.wrap("parent", parent)
    process = parent()
    assert process.send(None) == "wait"
    clock.advance(100.0)  # parked on a simulated event: no span open
    with pytest.raises(StopIteration) as stop:
        process.send(21)
    assert stop.value.value == 42
    totals = tracer.totals()
    assert totals["child"] == (1, 5.0, 5.0)
    assert totals["parent"] == (1, 7.0, 2.0)
    assert self_total(tracer) == clock.now - 100.0


def test_generator_sync_child_is_subtracted(clock):
    tracer = Tracer(clock)
    leaf = tracer.wrap("leaf", lambda: clock.advance(4.0))

    def process():
        clock.advance(1.0)
        yield "tick"
        leaf()
        clock.advance(1.0)

    process = tracer.wrap("process", process)
    generator = process()
    next(generator)
    with pytest.raises(StopIteration):
        next(generator)
    assert tracer.totals()["process"] == (1, 6.0, 2.0)
    assert tracer.totals()["leaf"] == (1, 4.0, 4.0)


def test_thrown_exception_reaches_the_wrapped_generator(clock):
    tracer = Tracer(clock)

    def guarded():
        try:
            yield "wait"
        except ValueError as error:
            clock.advance(0.5)
            return f"handled {error}"

    guarded = tracer.wrap("guarded", guarded)
    generator = guarded()
    next(generator)
    with pytest.raises(StopIteration) as stop:
        generator.throw(ValueError("interrupt"))
    assert stop.value.value == "handled interrupt"
    assert tracer.totals()["guarded"] == (1, 0.5, 0.5)


def test_close_propagates_to_the_wrapped_generator(clock):
    tracer = Tracer(clock)
    closed = []

    def long_running():
        try:
            yield "wait"
        finally:
            closed.append(True)

    generator = tracer.wrap("long", long_running)()
    next(generator)
    generator.close()
    assert closed == [True]


def test_install_wraps_and_restores(clock):
    class Owner:
        def method(self):
            clock.advance(1.0)
            return "result"

    module = types.ModuleType("fixture")
    module.function = lambda: clock.advance(2.0)
    originals = (Owner.__dict__["method"], module.function)
    tracer = Tracer(clock)
    with tracer.install([
        ("owner.method", Owner, "method"),
        ("module.function", module, "function"),
    ]):
        bound = Owner().method  # bound after installation: traced
        assert bound() == "result"
        module.function()
    assert (Owner.__dict__["method"], module.function) == originals
    Owner().method()
    totals = tracer.totals()
    assert totals["owner.method"] == (1, 1.0, 1.0)
    assert totals["module.function"] == (1, 2.0, 2.0)
