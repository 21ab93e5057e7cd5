"""Discrete-event simulation kernel.

This package provides the simulation substrate that the whole Data Grid
reproduction runs on: a virtual clock, an event queue, generator-based
processes (in the style of SimPy), condition events, shared resources and
deterministic named random streams.

Quick tour::

    from repro.sim import Simulator

    sim = Simulator()

    def greeter(sim):
        yield sim.timeout(5.0)
        print("hello at", sim.now)

    sim.process(greeter(sim))
    sim.run()

The kernel is intentionally free of any networking or grid concepts; those
live in :mod:`repro.network`, :mod:`repro.hosts` and above.
"""

from repro.sim.errors import Interrupt, SimulationError, StopProcess
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.random_streams import RandomStream, StreamRegistry
from repro.sim.resources import Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "RandomStream",
    "Resource",
    "Simulator",
    "SimulationError",
    "StopProcess",
    "StreamRegistry",
    "Timeout",
]
