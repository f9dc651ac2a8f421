"""The sim-time timeline recorder."""

import json

import pytest

from repro import obs
from repro.obs import load_windows
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.timeline import TimelineRecorder
from repro.sim import Environment


def _env():
    """An environment with a registry of its own (``env.metrics``)."""
    with use_metrics(MetricsRegistry()):
        return Environment()


def drive(env, registry, period, count, node="n1"):
    """A process ticking a counter + histogram every ``period``."""
    def proc(env):
        counter = registry.counter("ticks", node=node)
        hist = registry.histogram("tick.latency", node=node)
        for i in range(count):
            yield env.timeout(period)
            counter.add()
            hist.record(period * (i + 1))
    env.process(proc(env))


def test_counter_deltas_per_window():
    env = _env()
    registry = env.metrics
    recorder = TimelineRecorder(env, resolution=1.0)
    drive(env, registry, 0.25, 10)  # ticks at 0.25 .. 2.5
    env.run()
    recorder.finish()
    windows = list(recorder.records())
    deltas = [w["counters"].get("ticks{node=n1}", 0) for w in windows]
    # [0.25..0.75]=3 in window 0 (tick at 1.0 lands in window 1).
    assert deltas == [3, 4, 3]
    assert sum(deltas) == 10
    assert [w["start"] for w in windows] == [0.0, 1.0, 2.0]


def test_histogram_stats_cover_only_their_window():
    env = _env()
    registry = env.metrics
    recorder = TimelineRecorder(env, resolution=1.0)
    drive(env, registry, 0.25, 10)
    env.run()
    recorder.finish()
    first = list(recorder.records())[0]["histograms"]
    stats = first["tick.latency{node=n1}"]
    assert stats["count"] == 3
    assert stats["max"] == 0.75  # later observations not leaked back


def test_quiet_windows_still_emitted():
    env = _env()
    registry = env.metrics
    recorder = TimelineRecorder(env, resolution=1.0)

    def proc(env):
        registry.counter("a").add()
        yield env.timeout(3.5)
        registry.counter("a").add()

    env.process(proc(env))
    env.run()
    recorder.finish()
    windows = list(recorder.records())
    assert [w["index"] for w in windows] == [0, 1, 2, 3]
    assert windows[1]["counters"] == {}
    assert windows[2]["counters"] == {}


def test_finish_flushes_partial_window_and_is_idempotent():
    env = _env()
    registry = env.metrics
    recorder = TimelineRecorder(env, resolution=1.0)
    drive(env, registry, 0.3, 5)  # last activity at 1.5
    env.run()
    flushed = recorder.finish()
    windows = list(recorder.records())
    assert windows[-1].get("partial") is True
    assert windows[-1]["end"] == env.now
    assert sum(w["counters"].get("ticks{node=n1}", 0)
               for w in windows) == 5
    assert recorder.finish() == flushed  # second call is a no-op


def test_retention_ring_evicts_oldest():
    env = _env()
    registry = env.metrics
    recorder = TimelineRecorder(env, resolution=1.0,
                                retention=2)
    drive(env, registry, 0.5, 10)  # 5s of activity
    env.run()
    recorder.finish()
    windows = list(recorder.records())
    assert len(windows) == 2
    assert recorder.flushed > 2
    assert recorder.evicted == recorder.flushed - 2
    assert windows[0]["index"] == recorder.flushed - 2


def test_dump_jsonl_round_trips_through_load_windows(tmp_path):
    env = _env()
    registry = env.metrics
    recorder = TimelineRecorder(env, resolution=1.0)
    drive(env, registry, 0.25, 10)
    env.run()
    recorder.finish()
    path = str(tmp_path / "run.timeline.jsonl")
    lines = obs.dump_jsonl(path, timeline=recorder)
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    assert lines == len(records)
    assert load_windows(records) == list(recorder.records())


def test_recorder_does_not_change_event_counts():
    """The zero-event property replay digests rely on."""
    def stats(record):
        env = _env()
        registry = env.metrics
        recorder = TimelineRecorder(env, resolution=0.5) if record else None
        drive(env, registry, 0.25, 20)
        env.run()
        if recorder is not None:
            recorder.finish()
        return env.stats()

    assert stats(record=True) == stats(record=False)


def test_same_run_twice_is_identical():
    def run():
        env = _env()
        registry = env.metrics
        recorder = TimelineRecorder(env, resolution=1.0)
        drive(env, registry, 0.25, 10)
        drive(env, registry, 0.4, 5, node="n2")
        env.run()
        recorder.finish()
        return json.dumps(list(recorder.records()), sort_keys=True)

    assert run() == run()


def test_gauges_report_latest_value_only_on_change():
    env = _env()
    registry = env.metrics
    recorder = TimelineRecorder(env, resolution=1.0)

    def proc(env):
        gauge = registry.gauge("depth")
        gauge.set(3.0, at=env.now)
        yield env.timeout(0.5)
        gauge.set(5.0, at=env.now)
        yield env.timeout(2.0)

    env.process(proc(env))
    env.run()
    recorder.finish()
    windows = list(recorder.records())
    assert windows[0]["gauges"] == {"depth": 5.0}
    assert windows[1]["gauges"] == {}  # unchanged → not re-reported


def test_bad_retention_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        TimelineRecorder(env, retention=0)
