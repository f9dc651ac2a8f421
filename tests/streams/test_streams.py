"""Tests for media sources/sinks, bindings and synchronisation."""

import pytest

from repro.errors import StreamError
from repro.net import Network, Topology, lan
from repro.qos import QoSBroker, QoSMonitor, QoSParameters
from repro.sim import Environment
from repro.streams import (
    ARRIVAL,
    ContinuousSynchroniser,
    EventSynchroniser,
    Frame,
    MediaSink,
    MediaSource,
    StreamBinding,
    measure_drift,
)


@pytest.fixture
def env():
    return Environment()


# -- source / sink -------------------------------------------------------------

def test_source_validation(env):
    with pytest.raises(StreamError):
        MediaSource(env, "s", lambda f: None, rate=0)
    with pytest.raises(StreamError):
        MediaSource(env, "s", lambda f: None, frame_size=0)
    with pytest.raises(StreamError):
        MediaSource(env, "s", lambda f: None, clock_skew=0)


def test_source_generates_at_rate(env):
    frames = []
    source = MediaSource(env, "video", frames.append, rate=10.0,
                         frame_size=1000)
    source.start(duration=1.0)
    env.run(until=2.0)
    assert len(frames) == 10
    assert frames[0].media_time == 0.0
    assert frames[5].media_time == pytest.approx(0.5)
    assert source.frames_sent == 10


def test_source_double_start_rejected(env):
    source = MediaSource(env, "v", lambda f: None)
    source.start(duration=0.1)
    with pytest.raises(StreamError):
        source.start()


def test_source_stop(env):
    frames = []
    source = MediaSource(env, "v", frames.append, rate=10.0)
    source.start()

    def stopper(env):
        yield env.timeout(0.45)
        source.stop()

    env.process(stopper(env))
    env.run(until=2.0)
    assert len(frames) == 5


def test_sink_validation(env):
    with pytest.raises(StreamError):
        MediaSink(env, "s", mode="psychic")
    with pytest.raises(StreamError):
        MediaSink(env, "s", target_delay=-1)


def test_sink_deadline_mode_plays_on_schedule(env):
    sink = MediaSink(env, "monitor", target_delay=0.1)

    def feeder(env):
        for seq in range(3):
            frame = Frame("v", seq, seq / 10.0, 1000, env.now)
            yield env.timeout(0.01)  # small network delay
            sink.receive(frame)
            yield env.timeout(0.09)

    env.process(feeder(env))
    env.run()
    assert len(sink.played) == 3
    assert sink.deadline_misses == 0
    # First frame: arrived at 0.01, played at epoch = 0.01 + 0.1.
    assert sink.played[0].played_at == pytest.approx(0.11)


def test_sink_deadline_mode_counts_late_frames(env):
    sink = MediaSink(env, "monitor", target_delay=0.05)

    def feeder(env):
        sink.receive(Frame("v", 0, 0.0, 1000, env.now))
        # Frame 1 should play at epoch+0.1; it arrives far too late.
        yield env.timeout(0.5)
        sink.receive(Frame("v", 1, 0.1, 1000, 0.1))

    env.process(feeder(env))
    env.run()
    assert sink.deadline_misses == 1
    assert sink.miss_rate == pytest.approx(0.5)


def test_sink_arrival_mode_plays_immediately(env):
    sink = MediaSink(env, "s", mode=ARRIVAL)
    sink.receive(Frame("v", 0, 0.0, 100, 0.0))
    sink.receive(Frame("v", 1, 0.04, 100, 0.0))
    assert len(sink.played) == 2
    assert sink.position == pytest.approx(0.04)


def test_sink_miss_rate_empty(env):
    assert MediaSink(env, "s").miss_rate == 0.0


# -- bindings -----------------------------------------------------------------

def make_net(env):
    topo = lan(env, hosts=3)
    return Network(env, topo)


def test_binding_validation(env):
    net = make_net(env)
    with pytest.raises(StreamError):
        StreamBinding(net, "host0", "host0")


def test_binding_carries_frames(env):
    net = make_net(env)
    binding = StreamBinding(net, "host0", "host1")
    sink = MediaSink(env, "sink", target_delay=0.1)
    binding.attach_sink(sink)
    source = MediaSource(env, "video", binding.send_frame, rate=10.0,
                         frame_size=1000)
    source.start(duration=0.5)
    env.run(until=2.0)
    assert binding.counters["frames_sent"] == 5
    assert binding.counters["frames_received"] == 5
    assert len(sink.played) == 5
    assert sink.deadline_misses == 0


def test_binding_feeds_qos_monitor(env):
    net = make_net(env)
    level = QoSParameters(throughput=1e4, latency=0.1, jitter=0.1,
                          loss=0.5)
    broker = QoSBroker(net)
    contract = broker.negotiate("host0", "host1", level)
    monitor = QoSMonitor(env, contract, window=0.5,
                         expected_frames_per_window=5)
    binding = StreamBinding(net, "host0", "host1", contract=contract,
                            monitor=monitor)
    binding.attach_sink(MediaSink(env, "s", target_delay=0.1))
    source = MediaSource(env, "v", binding.send_frame, rate=10.0,
                         frame_size=1000)
    source.start(duration=1.0)
    env.run(until=1.6)
    assert monitor.counters["windows_ok"] >= 1


def test_reserved_binding_uses_priority(env):
    net = make_net(env)
    level = QoSParameters(throughput=1e4, latency=0.5)
    broker = QoSBroker(net)
    contract = broker.negotiate("host0", "host1", level)
    binding = StreamBinding(net, "host0", "host1", contract=contract)
    assert binding.priority == 0
    contract.close()
    assert binding.priority == 10


def test_event_synchroniser_fires_at_media_time(env):
    sink = MediaSink(env, "s", mode=ARRIVAL)
    cues = EventSynchroniser(sink)
    fired = []
    cues.at(0.2, lambda: fired.append(env.now))
    with pytest.raises(StreamError):
        cues.at(-1, lambda: None)

    def feeder(env):
        for seq in range(6):
            yield env.timeout(0.1)
            sink.receive(Frame("v", seq, seq * 0.1, 100, env.now))

    env.process(feeder(env))
    env.run()
    assert len(fired) == 1
    assert fired[0] == pytest.approx(0.3)  # frame with media_time 0.2
    assert cues.pending == 0


def test_event_synchroniser_fires_once(env):
    sink = MediaSink(env, "s", mode=ARRIVAL)
    cues = EventSynchroniser(sink)
    fired = []
    cues.at(0.0, lambda: fired.append(True))
    sink.receive(Frame("v", 0, 0.0, 100, 0.0))
    sink.receive(Frame("v", 1, 0.1, 100, 0.0))
    assert fired == [True]


def drifting_pair(env, skew):
    """An audio/video pair whose clocks drift apart at rate ``skew``."""
    audio_sink = MediaSink(env, "audio", mode=ARRIVAL)
    video_sink = MediaSink(env, "video", mode=ARRIVAL)
    audio = MediaSource(env, "audio", audio_sink.receive, rate=50.0)
    video = MediaSource(env, "video", video_sink.receive, rate=25.0,
                        clock_skew=skew)
    audio.start()
    video.start()
    return audio_sink, video_sink


def test_uncorrected_streams_drift(env):
    audio_sink, video_sink = drifting_pair(env, skew=1.05)
    drift = measure_drift(env, audio_sink, video_sink, duration=20.0)
    env.run(until=21.0)
    # 5% skew over 20s ≈ 1s of accumulated skew: integrity destroyed.
    assert drift.values[-1] > 0.5


def test_continuous_sync_bounds_skew(env):
    audio_sink, video_sink = drifting_pair(env, skew=1.05)
    sync = ContinuousSynchroniser(env, audio_sink, video_sink,
                                  check_interval=0.2)
    env.run(until=20.0)
    assert sync.counters["corrections"] > 0
    # Skew stayed within bound plus one check interval of drift —
    # versus >0.5s accumulated without correction.
    assert sync.max_abs_skew < 0.25


def test_sync_validation(env):
    a = MediaSink(env, "a", mode=ARRIVAL)
    b = MediaSink(env, "b", mode=ARRIVAL)
    with pytest.raises(StreamError):
        ContinuousSynchroniser(env, a, b, check_interval=0)


def test_sync_stop(env):
    a = MediaSink(env, "a", mode=ARRIVAL)
    b = MediaSink(env, "b", mode=ARRIVAL)
    sync = ContinuousSynchroniser(env, a, b)
    sync.stop()
    env.run(until=1.0)
    assert sync.counters["checks"] <= 1
