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
* **O(instruments) sampling.**  Each flush walks the registry's sorted
  instrument handles once (:meth:`MetricsRegistry.counter_items` et
  al.) — the bound-instrument objects are read directly, with no
  per-label keyed lookups.
* **Bounded memory.**  ``retention`` keeps the last N windows in a ring
  (:attr:`evicted` counts the rest); histogram deltas are tracked by
  observation index, not by copying values.

Quick start::

    recorder = TimelineRecorder(env, resolution=1.0, retention=600)
    ... run the simulation ...
    recorder.finish()               # flush the trailing partial window
    obs.dump_jsonl("run.timeline.jsonl", timeline=recorder)
"""

from __future__ import annotations

import collections
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.obs.metrics import Tally
from repro.obs.tracer import _require_size

_INFINITY = float("inf")


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

    def __init__(self, env, resolution: float = 1.0,
                 retention: Optional[int] = None,
                 start: Optional[float] = None) -> None:
        if not resolution > 0:  # also rejects NaN
            raise ValueError(
                "resolution must be positive, got {!r}".format(resolution))
        _require_size("retention", retention)
        if start is None:
            start = env.now
        elif not env.now <= start < _INFINITY:  # also rejects NaN
            # An earlier anchor would flush empty windows for time the
            # run never had; an infinite one would never flush at all.
            raise ValueError(
                "start must be a finite time no earlier than now ({}), "
                "got {!r}".format(env.now, start))
        self.env = env
        self.resolution = float(resolution)
        self.retention = retention
        self.windows: Any = collections.deque(maxlen=retention) \
            if retention is not None else []
        #: Windows flushed over the recorder's lifetime (>= len(windows)).
        self.flushed = 0
        #: Windows pushed out of the retention ring.
        self.evicted = 0
        self._counter_last: Dict[str, int] = {}
        self._hist_seen: Dict[str, int] = {}
        self._gauge_seen: Dict[str, int] = {}
        self._last_boundary = float(start)
        self._closed = False
        env.set_window_hook(self.resolution, self._on_boundary,
                            start=self._last_boundary)

    # -- collection --------------------------------------------------------

    def _on_boundary(self, boundary: float) -> None:
        self._flush(boundary, partial=False)

    def _flush(self, end: float, partial: bool) -> None:
        window: Dict[str, Any] = {
            "kind": "window",
            "index": self.flushed,
            "start": self._last_boundary,
            "end": end,
            "counters": {},
            "histograms": {},
            "gauges": {},
        }
        if partial:
            window["partial"] = True
        registry = self.env.metrics
        counters = window["counters"]
        for rendered, inst in registry.counter_items():
            value = inst.value
            last = self._counter_last.get(rendered, 0)
            if value != last:
                counters[rendered] = value - last
                self._counter_last[rendered] = value
        histograms = window["histograms"]
        for rendered, inst in registry.histogram_items():
            values = inst.values
            seen = self._hist_seen.get(rendered, 0)
            if len(values) > seen:
                histograms[rendered] = _window_summary(values[seen:])
                self._hist_seen[rendered] = len(values)
        gauges = window["gauges"]
        for rendered, inst in registry.gauge_items():
            samples = inst.samples
            seen = self._gauge_seen.get(rendered, 0)
            if len(samples) > seen:
                gauges[rendered] = samples[-1][1]
                self._gauge_seen[rendered] = len(samples)
        if self.retention is not None \
                and len(self.windows) == self.retention:
            self.evicted += 1
        self.windows.append(window)
        self.flushed += 1
        self._last_boundary = end

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

    def records(self) -> Iterator[Dict[str, Any]]:
        """The retained windows, oldest first (the JSONL export rows)."""
        return iter(self.windows)

    def __len__(self) -> int:
        return len(self.windows)

    def __repr__(self) -> str:
        return "<TimelineRecorder windows={} resolution={}{}>".format(
            len(self.windows), self.resolution,
            " evicted={}".format(self.evicted) if self.evicted else "")


def load_windows(records: Iterable[Dict[str, Any]]
                 ) -> List[Dict[str, Any]]:
    """The window records of a mixed JSONL dump, in index order."""
    windows = [r for r in records if r.get("kind") == "window"]
    windows.sort(key=lambda w: w.get("index", 0))
    return windows
