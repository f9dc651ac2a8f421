"""A playout deadline is a timer: cost, failure, restart and a model.

The sink waits for each on-time frame's deadline as one timeout whose
callback plays it.  The process-per-frame sink it replaced is kept here
as ``_ModelSink`` — a reference, not a second path — and a property
test holds the two to the same playout on random arrival scripts.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.streams import Frame, MediaSink, MediaSource
from tests.counting import CountingEnvironment


def _frame(seq, media_time, created_at=0.0):
    return Frame("v", seq, media_time, 1000, created_at)


# -- cost ----------------------------------------------------------------------

def test_an_on_time_frame_costs_one_queued_event_and_no_process():
    env = CountingEnvironment()
    sink = MediaSink(env, "s", target_delay=0.1)
    for seq in range(50):
        sink.receive(_frame(seq, seq / 25.0))
    assert (env.pushes, env.processes) == (50, 0)
    env.run()
    assert (env.pushes, env.pops, env.processes) == (50, 50, 0)
    assert [f.seq for f in sink.played] == list(range(50))
    assert sink.played[-1].played_at == pytest.approx(0.1 + 49 / 25.0)


def test_a_late_frame_costs_nothing():
    env = CountingEnvironment()
    sink = MediaSink(env, "s", target_delay=0.0)
    sink.receive(_frame(5, 0.2))
    sink.receive(_frame(0, 0.0))    # due 0.2 s before it arrived
    assert (env.pushes, sink.deadline_misses) == (1, 1)


# -- failure -------------------------------------------------------------------

def test_a_raising_on_play_callback_surfaces_from_run_and_the_run_resumes():
    env = Environment()
    sink = MediaSink(env, "s", target_delay=0.1)

    def on_play(frame):
        if frame.seq == 1:
            raise KeyError("renderer lost frame 1")

    sink.on_play(on_play)
    for seq in range(3):
        sink.receive(_frame(seq, seq / 10.0))
    with pytest.raises(KeyError, match="renderer lost frame 1"):
        env.run()
    assert env.now == pytest.approx(0.2)
    assert env.active_process is None
    env.run()
    assert [f.seq for f in sink.played] == [0, 1, 2]


# -- restart -------------------------------------------------------------------

def test_restart_inside_a_frame_interval_leaves_one_emitter():
    """stop() takes effect at the emitter's next wake-up; a start()
    before then must supersede the sleeping emitter, not run beside it."""
    env = Environment()
    frames = []
    source = MediaSource(env, "v", frames.append, rate=10.0)
    source.start()

    def restart(env):
        yield env.timeout(0.25)
        source.stop()
        source.start()

    env.process(restart(env))
    env.run(until=1.26)
    first, second = frames[:3], frames[3:]
    assert [f.created_at for f in first] == pytest.approx([0.0, 0.1, 0.2])
    # One stream from the restart on: 0.25, 0.35, ... 1.25.
    assert [f.seq for f in second] == list(range(11))
    assert [f.created_at for f in second] == pytest.approx(
        [0.25 + 0.1 * i for i in range(11)])
    assert source.frames_sent == len(frames) == 14


def test_restart_does_not_inherit_the_old_duration():
    env = Environment()
    frames = []
    source = MediaSource(env, "v", frames.append, rate=10.0)
    source.start(duration=0.5)

    def restart(env):
        yield env.timeout(0.25)
        source.stop()
        source.start()

    env.process(restart(env))
    env.run(until=2.0)
    assert source.running
    assert [f.seq for f in frames[3:]] == list(range(len(frames) - 3))


# -- an independent model ------------------------------------------------------
#
# The sink as it was: one fire-and-forget generator process per on-time
# frame (an Initialize event, the timeout, a completion event nobody
# waits on).  Frames of one epoch with equal media times share a
# deadline, so the scripts are full of ties *among playout timers*, and
# those must keep their order.  Arrival instants are multiples of an
# irrational step while media times, target delays and sync positions
# are dyadic, so a deadline never ties with the feeder's own wake-up:
# the model numbers a frame's timer after the feeder's next timeout
# (its Initialize runs once the feeder has yielded) and the sink before
# it, and only an exact tie could tell those apart.

class _ModelSink(MediaSink):

    def receive(self, frame):
        self.counters.incr("received")
        if self._epoch is None:
            self._epoch = self.env.now + self.target_delay \
                - frame.media_time
        deadline = self._epoch + frame.media_time
        if self.env.now > deadline:
            self.counters.incr("missed")
            return
        self.env.process(self._play_at(frame, deadline))

    def _play_at(self, frame, deadline):
        yield self.env.timeout(deadline - self.env.now)
        self._play(frame)


_ARRIVAL_STEP = math.sqrt(2) / 64
_MEDIA_STEP = 1 / 32

_STEPS = st.one_of(
    # A batch of frames arriving at one instant: in order, reordered,
    # duplicated (equal deadlines) or long overdue.
    st.tuples(st.just("frames"), st.integers(1, 12),
              st.lists(st.integers(0, 40), min_size=1, max_size=4)),
    st.tuples(st.just("adjust"), st.integers(1, 12), st.integers(0, 40)))


def _playout(sink_class, target_delay, steps):
    env = Environment()
    sink = sink_class(env, "s", target_delay=target_delay)
    played = []
    sink.on_play(lambda frame: played.append((env.now, frame.seq)))

    def feeder(env):
        for kind, gap, what in steps:
            yield env.timeout(gap * _ARRIVAL_STEP)
            if kind == "adjust":
                sink.sync_adjust(what * _MEDIA_STEP)
            else:
                for seq in what:
                    sink.receive(_frame(seq, seq * _MEDIA_STEP, env.now))

    env.process(feeder(env))
    env.run()
    assert played == [(f.played_at, f.seq) for f in sink.played]
    return (played, sink.deadline_misses, sink.position,
            sink.counters.as_dict(), sink.frame_latency.values)


@settings(max_examples=200)
@given(target_delay=st.sampled_from([0.0, 1 / 32, 1 / 8, 1 / 2]),
       steps=st.lists(_STEPS, min_size=1, max_size=30))
def test_sink_plays_what_the_process_per_frame_model_plays(target_delay,
                                                           steps):
    assert _playout(MediaSink, target_delay, steps) \
        == _playout(_ModelSink, target_delay, steps)


def test_the_scripts_reach_ties_misses_and_adjustments():
    """The property above is only as good as its scripts: one fixed
    script that has every ingredient, checked by hand."""
    steps = [("frames", 1, [0, 1, 1, 2]),     # 1 twice: equal deadlines
             ("frames", 8, [0, 6, 5]),        # 0 is overdue, 6/5 reorder
             ("adjust", 1, 4),
             ("frames", 1, [3, 9])]           # 3 is behind the new clock
    played, misses, position, counters, _ = _playout(MediaSink, 1 / 8,
                                                     steps)
    assert [seq for _, seq in played] == [0, 1, 1, 2, 5, 6, 9]
    assert played[1][0] == played[2][0]
    assert misses == 2 and counters["sync_adjustments"] == 1
    assert position == 9 * _MEDIA_STEP
    assert (played, misses, position, counters) \
        == _playout(_ModelSink, 1 / 8, steps)[:4]
