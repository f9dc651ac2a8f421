"""The sim-time timeline recorder."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import load_windows
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.timeline import TimelineRecorder, _window_summary
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


# -- windows built on read equal windows built at the boundary -------------


class _EagerTimeline:
    """The recorder as it was before windows were built on read: every
    boundary differences each instrument against the last value it saw,
    renders, sorts and summarises on the spot, and keeps the dict."""

    def __init__(self, env, resolution=1.0):
        self.env = env
        self.windows = []
        self.flushed = 0
        self._counter_last = {}
        self._hist_seen = {}
        self._gauge_seen = {}
        self._last_boundary = env.now
        self._closed = False
        env.set_window_hook(resolution, self._on_boundary)

    def _on_boundary(self, boundary):
        self._flush(boundary, partial=False)

    def _flush(self, end, partial):
        window = {"kind": "window", "index": self.flushed,
                  "start": self._last_boundary, "end": end,
                  "counters": {}, "histograms": {}, "gauges": {}}
        if partial:
            window["partial"] = True
        registry = self.env.metrics
        for rendered, inst in registry.counter_items():
            last = self._counter_last.get(rendered, 0)
            if inst.value != last:
                window["counters"][rendered] = inst.value - last
                self._counter_last[rendered] = inst.value
        for rendered, inst in registry.histogram_items():
            seen = self._hist_seen.get(rendered, 0)
            if len(inst.values) > seen:
                window["histograms"][rendered] = _window_summary(
                    inst.values[seen:])
                self._hist_seen[rendered] = len(inst.values)
        for rendered, inst in registry.gauge_items():
            seen = self._gauge_seen.get(rendered, 0)
            if len(inst.samples) > seen:
                window["gauges"][rendered] = inst.samples[-1][1]
                self._gauge_seen[rendered] = len(inst.samples)
        self.windows.append(window)
        self.flushed += 1
        self._last_boundary = end

    def finish(self):
        if not self._closed:
            if self.env.now > self._last_boundary:
                self._flush(self.env.now, partial=True)
            self.env.clear_window_hook()
            self._closed = True
        return self.flushed


# A step waits, then writes one instrument of a small pool (each created
# on its first write, so mid-run for most) or reads the windows so far.
_STEP = st.tuples(
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 2.5]),
    st.sampled_from(["counter", "histogram", "gauge", "read"]),
    st.integers(0, 3),
    st.sampled_from([1, 2, 0.5, -0.0, 7.25]))


def _play(recorder_class, steps, reads):
    """Run ``steps`` under a recorder; what each read saw, and the end."""
    env = _env()
    registry = env.metrics
    flushes = []
    registry.add_flush_hook(lambda: flushes.append(env.now), ["hooked"])
    recorder = recorder_class(env, resolution=1.0)

    def script(env):
        for wait, kind, index, value in steps:
            yield env.timeout(wait)
            labels = {"node": "n{}".format(index)}
            if kind == "counter":
                registry.counter("c" + "ab"[index % 2], **labels).add(
                    int(value) or 1)
            elif kind == "histogram":
                registry.histogram("h", **labels).record(value)
            elif kind == "gauge":
                registry.gauge("g" * (1 + index % 2), **labels).set(
                    value, at=env.now)
            else:
                reads.append(json.dumps(list(recorder.windows)))

    env.process(script(env))
    env.run()
    recorder.finish()
    return list(recorder.windows), recorder.flushed, flushes


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_STEP, min_size=1, max_size=30))
def test_windows_built_on_read_equal_windows_built_at_the_boundary(steps):
    # Instruments created mid-run, histograms and gauges quiet in some
    # windows, reads mid-run with more windows after them, and
    # finish()'s partial window.
    lazy_reads, eager_reads = [], []
    lazy = _play(TimelineRecorder, steps, lazy_reads)
    eager = _play(_EagerTimeline, steps, eager_reads)
    assert lazy_reads == eager_reads
    windows, flushed, flushes = lazy
    assert json.dumps(windows) == json.dumps(eager[0])
    assert flushed == eager[1]
    # One registry flush per boundary (the eager recorder made three),
    # and the reads made none.
    assert len(flushes) == flushed
    assert len(eager[2]) == 3 * eager[1]
