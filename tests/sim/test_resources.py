"""Tests for Resource."""

import pytest

from repro.sim import Resource, Simulator


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.count == 2


def test_resource_fifo_handoff():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(tag, hold):
        with res.request() as req:
            yield req
            order.append(("start", tag, sim.now))
            yield sim.timeout(hold)
        order.append(("end", tag, sim.now))

    sim.process(worker("a", 3.0))
    sim.process(worker("b", 2.0))
    sim.run()
    assert order == [
        ("start", "a", 0.0),
        ("end", "a", 3.0),
        ("start", "b", 3.0),
        ("end", "b", 5.0),
    ]


def test_release_of_queued_request_cancels_it():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()
    queued = res.request()
    res.release(queued)  # cancel before grant
    res.release(held)
    assert res.count == 0
    assert not queued.triggered


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)
