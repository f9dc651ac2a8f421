"""Sim-time timeline recorder: windowed instrument deltas.

:meth:`MetricsRegistry.snapshot` answers "what happened over the whole
run"; this module answers *when* — which node was hot at t=40s, which
link's byte rate spiked during the partition.  A
:class:`TimelineRecorder` rides the environment's window-boundary hook
(:meth:`Environment.set_window_hook
<repro.sim.environment.Environment.set_window_hook>`): at every
``resolution`` seconds of simulated time it differences the live
instruments of the environment's registry (``env.metrics``) into a
window record — counter deltas, per-window histogram distributions
(count/mean/p50/p95/p99/max over just that window's observations) and
latest gauge values.

Design constraints, in order:

* **No-op by default.**  Nothing records unless a recorder is
  constructed; the hook itself schedules zero events, so a
  recorder-*on* run dispatches exactly the events of a recorder-off
  run, in the same order — replay digests cannot tell.
* **Deterministic cuts.**  The hook fires before the callbacks of the
  event that reached the boundary, so window ``[a, b)`` contains
  exactly the effects of events with ``t < b``; same seed ⇒ same
  windows, byte for byte.
* **Positions at the boundary, windows on read.**  A boundary flushes
  the registry once and keeps each instrument's position in
  registration order (:meth:`MetricsRegistry.positions`): a counter's
  value, a histogram's or gauge's length.  Deltas, window summaries
  and the rendered, sorted keys are built when :attr:`windows` or
  :meth:`records` is read.  Instruments only ever grow, so the
  observations between two positions are still there to summarise.

Quick start::

    recorder = TimelineRecorder(env, resolution=1.0)
    ... run the simulation ...
    recorder.finish()               # flush the trailing partial window
    obs.dump_jsonl("run.timeline.jsonl", timeline=recorder)
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Tuple

from repro.obs.metrics import LabelKey, Tally, _render


def _window_summary(values: List[float]) -> Dict[str, float]:
    """Distribution stats over one window's observations."""
    tally = Tally()
    tally.values = [float(value) for value in values]
    return {
        "count": tally.count,
        "mean": tally.mean,
        "p50": tally.median,
        "p95": tally.p95,
        "p99": tally.p99,
        "max": tally.maximum,
    }


class TimelineRecorder:
    """Snapshots registry deltas at fixed sim-time windows.

    Windows are plain JSON-safe dicts (the JSONL rows)::

        {"kind": "window", "index": 3, "start": 1.5, "end": 2.0,
         "counters":   {"net.node.sent{node=host0}": 12, ...},   # deltas
         "histograms": {"rpc.latency{node=host1}": {"count": 4,
                        "mean": ..., "p50": ..., "p95": ..., "p99": ...,
                        "max": ...}, ...},                # this window only
         "gauges":     {"slo.burn_rate{slo=avail}": 1.5, ...}}   # latest

    Only instruments that changed during a window appear in it; windows
    with no activity are still emitted (empty dicts) so the timeline
    stays contiguous and "what happened at t=40" always has an answer.
    A trailing partial window flushed by :meth:`finish` carries
    ``"partial": true``.

    It reads ``env.metrics``, the registry its environment was built
    under.
    """

    def __init__(self, env, resolution: float = 1.0) -> None:
        if not resolution > 0:  # also rejects NaN
            raise ValueError(
                "resolution must be positive, got {!r}".format(resolution))
        self.env = env
        self.resolution = float(resolution)
        # Per window: index, start, end, partial, then the registry's
        # positions at its end (counter values, histogram lengths,
        # gauge lengths, each in registration order).
        self._marks: List[Tuple[Any, ...]] = []
        self._last_boundary = env.now
        self._closed = False
        env.set_window_hook(self.resolution, self._on_boundary)

    # -- collection --------------------------------------------------------

    def _on_boundary(self, boundary: float) -> None:
        self._flush(boundary, partial=False)

    def _flush(self, end: float, partial: bool) -> None:
        self._marks.append((len(self._marks), self._last_boundary, end,
                            partial) + self.env.metrics.positions())
        self._last_boundary = end

    @property
    def flushed(self) -> int:
        """Windows flushed so far."""
        return len(self._marks)

    def finish(self) -> int:
        """Flush the trailing partial window and release the hook.

        Idempotent; returns the total number of windows flushed.  Call
        after the simulation settles (``env.run()`` returned) so the
        tail of the run — activity since the last whole boundary — is
        not silently dropped.
        """
        if not self._closed:
            if self.env.now > self._last_boundary:
                self._flush(self.env.now, partial=True)
            self.env.clear_window_hook()
            self._closed = True
        return self.flushed

    # -- reading -----------------------------------------------------------

    @property
    def windows(self) -> List[Dict[str, Any]]:
        """The windows, oldest first, built on each read."""
        counters, histograms, gauges = (
            _by_key(instruments)
            for instruments in self.env.metrics.registered())
        windows = []
        before: Tuple[List[Any], ...] = ([], [], [])
        for index, start, end, partial, *now in self._marks:
            # An instrument registered since ``before`` was at zero.
            values, lengths, samples = now
            last, seen, sampled = (
                was + [0] * (len(is_) - len(was))
                for was, is_ in zip(before, now))
            window: Dict[str, Any] = {
                "kind": "window", "index": index, "start": start,
                "end": end,
                "counters": {
                    rendered: values[i] - last[i]
                    for rendered, i, _ in counters
                    if i < len(values) and values[i] != last[i]},
                "histograms": {
                    rendered: _window_summary(tally.values[
                        seen[i]:lengths[i]])
                    for rendered, i, tally in histograms
                    if i < len(lengths) and lengths[i] > seen[i]},
                "gauges": {
                    rendered: series.samples[samples[i] - 1][1]
                    for rendered, i, series in gauges
                    if i < len(samples) and samples[i] > sampled[i]}}
            if partial:
                window["partial"] = True
            windows.append(window)
            before = now
        return windows

    def records(self) -> Iterator[Dict[str, Any]]:
        """The windows, oldest first (the JSONL export rows)."""
        return iter(self.windows)

    def __len__(self) -> int:
        return len(self._marks)

    def __repr__(self) -> str:
        return "<TimelineRecorder windows={} resolution={}>".format(
            len(self._marks), self.resolution)


def _by_key(instruments: Dict[LabelKey, Any]
            ) -> List[Tuple[str, int, Any]]:
    """``(rendered key, registration index, instrument)``, sorted by key."""
    return [(_render(key), index, instrument)
            for key, index, instrument in sorted(
                (key, index, instrument) for index, (key, instrument)
                in enumerate(instruments.items()))]


def load_windows(records: Iterable[Dict[str, Any]]
                 ) -> List[Dict[str, Any]]:
    """The window records of a mixed JSONL dump, in index order."""
    windows = [r for r in records if r.get("kind") == "window"]
    windows.sort(key=lambda w: w.get("index", 0))
    return windows
