"""Discrete-event simulation kernel underpinning the repro middleware.

The kernel provides the same generator-coroutine model popularised by SimPy:
an :class:`Environment` owns the clock and event queue; *processes* are
generators that yield :class:`Event` objects and resume when they fire.

>>> from repro.sim import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(3.0)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run(proc)
3.0
"""

from repro.sim.environment import Environment, drive
from repro.sim.events import (
    AnyOf,
    Event,
    Process,
    Timeout,
)
from repro.sim.resources import Store
from repro.sim.rng import RandomStreams, exponential, zipf_index

__all__ = [
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "RandomStreams",
    "Store",
    "Timeout",
    "drive",
    "exponential",
    "zipf_index",
]
