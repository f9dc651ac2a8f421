"""Continuous-media sources and sinks (§4.2.2-i).

*"Continuous media (e.g. video and audio) have an implied temporal
dimension, i.e. they are presented at a particular rate for a particular
length of time.  If the required rate of presentation is not met, the
integrity of these media is destroyed."*

A :class:`MediaSource` emits timestamped :class:`Frame` objects at a
nominal rate (with optional clock skew — real devices drift, which is what
continuous synchronisation corrects).  A :class:`MediaSink` plays frames
in one of two modes:

* ``deadline`` — each frame must be presented by its playout deadline
  (first-arrival epoch + media time + target delay); late frames are
  deadline misses.  This is the integrity metric of experiment E7.
  An on-time frame waits for its deadline as one timeout whose callback
  plays it: one queued event per frame and no process, so an ``on_play``
  callback that raises surfaces from ``env.run()`` as itself.
* ``arrival`` — frames play as they arrive (after the transport), so the
  sink's playout position tracks its source's real clock; two sinks with
  drifting sources visibly desynchronise, which experiment E8 corrects.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import StreamError
from repro.obs.metrics import Counter, Tally
from repro.sim import Environment

DEADLINE = "deadline"
ARRIVAL = "arrival"


class Frame:
    """One media frame with its position on the media timeline."""

    __slots__ = ("stream", "seq", "media_time", "size",
                 "created_at", "played_at")

    def __init__(self, stream: str, seq: int, media_time: float,
                 size: int, created_at: float) -> None:
        self.stream = stream
        self.seq = seq
        self.media_time = media_time
        self.size = size
        self.created_at = created_at
        self.played_at: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        if self.played_at is None:
            return None
        return self.played_at - self.created_at

    def __repr__(self) -> str:
        return "<Frame {}#{} t={:.3f}>".format(
            self.stream, self.seq, self.media_time)


class MediaSource:
    """Generates frames at ``rate`` fps, ``frame_size`` bytes each.

    ``clock_skew`` multiplies the real inter-frame interval (1.0 = perfect
    clock; 1.01 = 1% slow).  ``transmit`` is how frames leave the device —
    usually a stream binding's send method.
    """

    def __init__(self, env: Environment, name: str,
                 transmit: Callable[[Frame], None],
                 rate: float = 25.0, frame_size: int = 4000,
                 clock_skew: float = 1.0) -> None:
        if not rate > 0:  # also rejects NaN
            raise StreamError("rate must be positive")
        if not frame_size > 0:
            raise StreamError("frame_size must be positive")
        if not clock_skew > 0:
            raise StreamError("clock_skew must be positive")
        self.env = env
        self.name = name
        self.transmit = transmit
        self.rate = rate
        self.frame_size = frame_size
        self.clock_skew = clock_skew
        self.frames_sent = 0
        self.running = False
        self._generation = 0

    def start(self, duration: Optional[float] = None) -> None:
        """Begin emitting frames (optionally for ``duration`` seconds)."""
        if self.running:
            raise StreamError("source {} already running".format(self.name))
        self.running = True
        # A stop() takes effect at the emitter's next wake-up; a start()
        # before then supersedes it instead of running beside it.
        self._generation += 1
        self.env.process(self._run(duration, self._generation))

    def stop(self) -> None:
        """Cease emitting after the current frame."""
        self.running = False

    def _run(self, duration: Optional[float], generation: int):
        interval = (1.0 / self.rate) * self.clock_skew
        started = self.env.now
        seq = 0
        while self.running and self._generation == generation:
            # Absolute scheduling avoids floating-point interval drift.
            due = started + seq * interval
            if duration is not None and due - started >= duration:
                self.running = False
                break
            delay = due - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            if not self.running or self._generation != generation:
                break
            frame = Frame(self.name, seq, seq / self.rate,
                          self.frame_size, self.env.now)
            self.frames_sent += 1
            self.transmit(frame)
            seq += 1


class MediaSink:
    """Plays received frames; measures integrity and playout position."""

    def __init__(self, env: Environment, name: str,
                 mode: str = DEADLINE,
                 target_delay: float = 0.15) -> None:
        if mode not in (DEADLINE, ARRIVAL):
            raise StreamError("unknown sink mode: " + mode)
        if not target_delay >= 0:
            raise StreamError(
                "target_delay must be non-negative: {!r}".format(
                    target_delay))
        self.env = env
        self.name = name
        self.mode = mode
        self.target_delay = target_delay
        self._epoch: Optional[float] = None
        self.position = 0.0
        self.played: List[Frame] = []
        self.frame_latency = Tally(name + "-latency")
        self.counters = Counter()
        self._on_play: List[Callable[[Frame], None]] = []

    def on_play(self, callback: Callable[[Frame], None]) -> None:
        """Subscribe to every played frame (drives synchronisers)."""
        self._on_play.append(callback)

    def receive(self, frame: Frame) -> None:
        """A frame arrives from the binding."""
        self.counters.incr("received")
        if self.mode == ARRIVAL:
            self._play(frame)
            return
        if self._epoch is None:
            # Anchor the playout clock at the first arrival.
            self._epoch = self.env.now + self.target_delay \
                - frame.media_time
        deadline = self._epoch + frame.media_time
        if self.env.now > deadline:
            self.counters.incr("missed")
            return
        self.env.timeout(deadline - self.env.now, frame).callbacks.append(
            self._play_due)

    def sync_adjust(self, new_position: float) -> None:
        """Continuous-sync correction: jump the playout position."""
        self.counters.incr("sync_adjustments")
        self.position = new_position
        if self._epoch is not None:
            # Shift the playout clock so future deadlines line up.
            self._epoch = self.env.now - new_position

    @property
    def deadline_misses(self) -> int:
        """Received frames that missed their playout deadline."""
        return self.counters["missed"]

    @property
    def miss_rate(self) -> float:
        """Fraction of received frames that missed their deadline."""
        received = self.counters["received"]
        if received == 0:
            return 0.0
        return self.deadline_misses / received

    # -- internals -------------------------------------------------------------

    def _play_due(self, timer) -> None:
        self._play(timer.value)

    def _play(self, frame: Frame) -> None:
        frame.played_at = self.env.now
        self.played.append(frame)
        self.position = max(self.position, frame.media_time)
        self.frame_latency.record(frame.played_at - frame.created_at)
        self.counters.incr("played")
        for callback in self._on_play:
            callback(frame)
