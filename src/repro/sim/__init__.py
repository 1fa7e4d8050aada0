"""Discrete-event simulation kernel.

The kernel is a small, dependency-free cousin of SimPy: a virtual clock, a
priority event queue and coroutine-style processes written as generators that
``yield`` events (timeouts, other processes, custom events).  All higher
layers of the reproduction (network, storage elements, replication,
front-ends, provisioning) are built as processes on top of this kernel, so
experiments run in virtual time and are reproducible from a seed.

Typical usage::

    from repro.sim import Simulation

    sim = Simulation(seed=7)

    def worker(sim, results):
        yield from sim.hold(1.5)
        results.append(sim.now)

    results = []
    sim.process(worker(sim, results))
    sim.run()
    assert results == [1.5]
"""

from repro.sim.engine import Simulation
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    EventStatus,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.rng import RandomStreams
from repro.sim import units

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "EventStatus",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Simulation",
    "SimulationError",
    "Timeout",
    "units",
]
