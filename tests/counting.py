"""An environment that counts what the kernel queues, from outside it."""

from repro.sim import Environment


class CountingEnvironment(Environment):
    """Counts pushes, pops and processes from outside the kernel and
    holds the kernel's own counters to them on the way out of every
    run()."""

    def __init__(self):
        super().__init__()
        self.pushes = self.pops = self.processes = 0
        # The run loop calls the dispatch hook once per popped entry.
        self._flight_dispatch = self._popped

    def _push(self, time, key, event):
        self.pushes += 1
        super()._push(time, key, event)

    def _popped(self, time, priority, eid):
        self.pops += 1

    def process(self, generator, name=None):
        self.processes += 1
        return super().process(generator, name)

    def run(self, until=None):
        try:
            return super().run(until)
        finally:
            stats = self.stats()
            assert stats["events_scheduled"] == self.pushes
            assert stats["events_processed"] == self.pops
            assert self.pushes - self.pops == stats["queue_depth"]
