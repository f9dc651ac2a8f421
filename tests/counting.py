"""Environments that count, or shuffle, what the kernel queues, from
outside it."""

import random

from repro.sim import Environment
from repro.sim.environment import dispatch_parts


class CountingEnvironment(Environment):
    """Counts pushes and processes from outside the kernel and holds the
    kernel's own counters to them on the way out of every run()."""

    def __init__(self):
        super().__init__()
        self.pushes = self.processes = 0

    @property
    def pops(self):
        """Entries that left the queue: only step() and run() take any."""
        return self.pushes - len(self._queue)

    def _push(self, time, key, event):
        self.pushes += 1
        super()._push(time, key, event)

    def process(self, generator, name=None):
        self.processes += 1
        return super().process(generator, name)

    def run(self, until=None):
        try:
            return super().run(until)
        finally:
            stats = self.stats()
            assert stats["events_scheduled"] == self.pushes
            assert stats["events_processed"] \
                == self.pushes - stats["queue_depth"]


class ShuffledEnvironment(CountingEnvironment):
    """Breaks ties among same ``(time, priority)`` events in a seeded
    random order instead of schedule order: each event is filed under a
    random rank whose low bits are its ``eid``, so ranks stay unique and
    URGENT still precedes NORMAL.  A batch (``Environment.batch``) is
    one queue entry, so the calls of one batch keep their call order:
    only the batch as a whole is reordered among its ties."""

    def __init__(self, seed):
        super().__init__()
        self._ranks = random.Random(seed)

    def _push(self, time, key, event):
        eid = dispatch_parts(key)[1]
        rank = self._ranks.getrandbits(20) << 28 | eid
        super()._push(time, key - eid + rank, event)
