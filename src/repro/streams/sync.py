"""Real-time synchronisation of media activities (§4.2.2-iii).

The paper identifies two styles: *"event driven synchronisation where it
is necessary to initiate an action (such as displaying a caption) at a
particular point in time and, secondly, continuous synchronisation, where
data presentation devices must be tied together so that they consume data
in fixed ratios (e.g. in lip synchronisation)"*.

:class:`EventSynchroniser` fires registered actions when a stream's
playout position crosses each media time.  :class:`ContinuousSynchroniser`
ties a slave sink to a master sink, correcting the slave whenever the
inter-stream skew exceeds a bound (lip-sync tolerance ≈ 80 ms).
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.errors import StreamError
from repro.obs.metrics import Counter, Tally
from repro.sim import Environment
from repro.streams.media import Frame, MediaSink


class EventSynchroniser:
    """Fire actions at points on a stream's media timeline."""

    def __init__(self, sink: MediaSink) -> None:
        self.sink = sink
        #: (media_time, action, fired?) sorted by media_time.
        self._cues: List[List] = []
        self.fired: List[Tuple[float, float]] = []
        sink.on_play(self._check)

    def at(self, media_time: float,
           action: Callable[[], None]) -> None:
        """Run ``action`` once playout reaches ``media_time``."""
        if media_time < 0:
            raise StreamError("media_time must be non-negative")
        self._cues.append([media_time, action, False])
        self._cues.sort(key=lambda cue: cue[0])

    @property
    def pending(self) -> int:
        return sum(1 for cue in self._cues if not cue[2])

    def _check(self, frame: Frame) -> None:
        for cue in self._cues:
            media_time, action, fired = cue
            if fired or media_time > self.sink.position:
                continue
            cue[2] = True
            self.fired.append((media_time, frame.played_at))
            action()


#: The skew, in seconds, beyond which a synchroniser corrects the slave
#: (80 ms: lip sync is lost past it).
SYNC_BOUND = 0.08
#: How often :func:`measure_drift` samples the skew, in seconds.
DRIFT_SAMPLE_INTERVAL = 0.2


class ContinuousSynchroniser:
    """Keep a slave stream within ``SYNC_BOUND`` of a master stream.

    Every ``check_interval`` the skew (master position − slave position)
    is sampled; beyond the bound, the slave's playout position is snapped
    to the master's (a skip forward or a hold back — the mechanics a real
    device achieves by dropping or repeating frames).
    """

    def __init__(self, env: Environment, master: MediaSink,
                 slave: MediaSink, check_interval: float = 0.2) -> None:
        if not check_interval > 0:  # also rejects NaN
            raise StreamError("check_interval must be positive")
        self.env = env
        self.master = master
        self.slave = slave
        self.check_interval = check_interval
        self.skew_samples = Tally("skew")
        self.max_abs_skew = 0.0
        self.counters = Counter()
        self.running = True
        self.process = env.process(self._run())

    def stop(self) -> None:
        self.running = False

    def current_skew(self) -> float:
        """Instantaneous master-minus-slave playout skew."""
        return self.master.position - self.slave.position

    def _run(self):
        while self.running:
            yield self.env.timeout(self.check_interval)
            skew = self.current_skew()
            self.skew_samples.record(skew)
            self.max_abs_skew = max(self.max_abs_skew, abs(skew))
            self.counters.incr("checks")
            if abs(skew) > SYNC_BOUND:
                self.counters.incr("corrections")
                self.slave.sync_adjust(self.master.position)


def measure_drift(env: Environment, master: MediaSink, slave: MediaSink,
                  duration: float) -> Tally:
    """Sample skew without correcting (the E8 no-sync baseline)."""
    tally = Tally("uncorrected-skew")

    def sampler(env):
        elapsed = 0.0
        while elapsed < duration:
            yield env.timeout(DRIFT_SAMPLE_INTERVAL)
            elapsed += DRIFT_SAMPLE_INTERVAL
            tally.record(master.position - slave.position)

    env.process(sampler(env))
    return tally
