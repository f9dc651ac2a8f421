"""The metrics registry: named, labelled instruments with one snapshot.

Unifies the ad-hoc probes (:class:`~repro.sim.monitor.Tally`,
:class:`~repro.sim.monitor.Counter`, :class:`~repro.sim.monitor.TimeSeries`)
behind named instruments with labels::

    metrics = obs.get_metrics()
    metrics.counter("net.drops", reason="loss").add()
    metrics.histogram("rpc.latency", node="host1").record(0.012)
    metrics.snapshot()   # one dict for benchmark tables / JSONL export

Instruments are created on first use and cached by ``(name, labels)``.
Recording never touches the simulation clock or RNG streams, so enabling
metrics cannot change experiment output.

Two rules hold for everything that writes here.

*A number is kept once.*  A hot path that cannot afford an instrument
call per record keeps its own book and registers a *flush hook*
(:meth:`MetricsRegistry.add_flush_hook`) naming the instruments that
book backs; the hook folds what the book gained since its last run
into the instruments.  Every read path — the keyed factories for those
names (any other name pays a set probe), ``counters()``/``snapshot()``/
``records()``, the ``*_items()`` iteration the timeline recorder uses at
window boundaries, and the SLO aggregations — runs the hooks first, so
readers always see fresh values while writers schedule zero flush events
and pay one int add per record.  Hooks must be idempotent when nothing
has moved.  The book is the only copy: the registry's view of it is
derived on read, never written beside it.

*A registry is bound once.*  An instrumentation site that keeps an
instrument (``registry.counter(...)`` returns the instrument itself;
keeping it skips the re-keying) takes it from the registry that is
ambient at its first record and keeps it: it never asks again whether
the ambient registry has changed since.  So install the registry before
the first record, and a fresh one per run (``use_metrics``).  That
nobody swaps a registry under a component that already recorded was
measured, not assumed: with a log line at each of the five identity
checks the sites used to make, tier-1, ``pytest benchmarks/``,
``bench/run.py`` on five workloads, ``replay`` on all 11 registered
workloads and ``examples/traced_invoke.py`` logged 6 swaps, all inside
the three tests written to test the rebinding
(``test_cells_flush_to_their_own_registry_after_a_swap``,
``test_rpc_inflight_gauge_follows_the_ambient_registry``,
``test_bound_counter_cache_rebinds_on_registry_swap``).
docs/performance.md "Who swaps a registry under a live component" has
the table, the probe and the commands to re-run it.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.sim.monitor import Tally, TimeSeries

LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, Any]) -> LabelKey:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def _render(key: LabelKey) -> str:
    name, labels = key
    if not labels:
        return name
    return "{}{{{}}}".format(
        name, ",".join("{}={}".format(k, v) for k, v in labels))


class CounterInstrument:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]
                 ) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return "<Counter {}={}>".format(self.name, self.value)


class HistogramInstrument:
    """A distribution of observations (backed by a Tally)."""

    __slots__ = ("name", "labels", "tally", "_below")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]
                 ) -> None:
        self.name = name
        self.labels = dict(labels)
        self.tally = Tally(name)
        # threshold -> running count of observations <= threshold; a
        # threshold registers on its first count_below() query, so the SLO
        # layer's repeated window evals are O(1) instead of a full rescan.
        self._below: Dict[float, int] = {}

    def record(self, value: float) -> None:
        self.tally.record(value)
        for threshold in self._below:
            if value <= threshold:
                self._below[threshold] += 1

    @property
    def count(self) -> int:
        return self.tally.count

    @property
    def mean(self) -> float:
        return self.tally.mean

    def count_below(self, threshold: float) -> int:
        """Observations ``<= threshold`` (the SLO "good event" count).

        The first query for a threshold scans the recorded values once and
        registers it; later records keep the count incrementally.
        """
        cached = self._below.get(threshold)
        if cached is None:
            cached = sum(1 for value in self.tally.values
                         if value <= threshold)
            self._below[threshold] = cached
        return cached

    def summary(self) -> Dict[str, float]:
        return self.tally.summary()

    def __repr__(self) -> str:
        return "<Histogram {} n={}>".format(self.name, self.tally.count)


class GaugeInstrument:
    """A sampled value over simulated time (backed by a TimeSeries)."""

    __slots__ = ("name", "labels", "series")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]
                 ) -> None:
        self.name = name
        self.labels = dict(labels)
        self.series = TimeSeries(name)

    def set(self, value: float, at: float) -> None:
        self.series.record(at, value)

    @property
    def last(self) -> float:
        return self.series.samples[-1][1] if self.series.samples else 0.0

    def __repr__(self) -> str:
        return "<Gauge {}={}>".format(self.name, self.last)


class MetricsRegistry:
    """All instruments for one collection scope, keyed by name + labels."""

    def __init__(self) -> None:
        self._counters: Dict[LabelKey, CounterInstrument] = {}
        self._histograms: Dict[LabelKey, HistogramInstrument] = {}
        self._gauges: Dict[LabelKey, GaugeInstrument] = {}
        # Deferred-write hooks (see module docstring).  _flushing guards
        # against recursion: a hook folding its book goes through the
        # keyed factories, which flush on entry.
        self._flush_hooks: List[Any] = []
        self._flushed_names: Set[str] = set()
        self._flushing = False

    # -- batched flushing --------------------------------------------------

    def add_flush_hook(self, hook, names: Iterable[str]) -> None:
        """Register a zero-arg callable run before every read.

        The contract for batching writers: keep one book, register one
        hook, fold what the book gained since the last call into the
        real instruments when called.  ``names`` lists every instrument
        name the book backs: the keyed factories run the hooks only for
        those names (the aggregate readers always do).  Hooks run in
        registration order and must be no-ops when nothing has moved.
        """
        names = frozenset(names)
        if not names:
            raise ValueError(
                "names must list the instruments the hook's book backs")
        self._flush_hooks.append(hook)
        self._flushed_names |= names

    def _flush(self) -> None:
        if not self._flush_hooks or self._flushing:
            return
        self._flushing = True
        try:
            for hook in self._flush_hooks:
                hook()
        finally:
            self._flushing = False

    # -- instrument factories (create-on-first-use, cached) ----------------

    def counter(self, name: str, **labels: Any) -> CounterInstrument:
        if name in self._flushed_names:
            self._flush()
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = CounterInstrument(
                name, key[1])
        return instrument

    def histogram(self, name: str, **labels: Any) -> HistogramInstrument:
        if name in self._flushed_names:
            self._flush()
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = HistogramInstrument(
                name, key[1])
        return instrument

    def gauge(self, name: str, **labels: Any) -> GaugeInstrument:
        if name in self._flushed_names:
            self._flush()
        key = _key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = GaugeInstrument(name, key[1])
        return instrument

    # -- querying ----------------------------------------------------------

    def counters(self, name: Optional[str] = None
                 ) -> Dict[str, int]:
        """Counter values, optionally restricted to one instrument name.

        Keys are sorted (name, then label tuples), never insertion- or
        hash-ordered, so digests over the result are stable across
        ``PYTHONHASHSEED`` — the same guarantee :meth:`snapshot`,
        :meth:`histograms`, :meth:`gauges` and :meth:`records` make.
        """
        self._flush()
        return {_render(key): instrument.value
                for key, instrument in sorted(self._counters.items())
                if name is None or key[0] == name}

    def histograms(self, name: Optional[str] = None
                   ) -> Dict[str, Dict[str, float]]:
        """Histogram summaries, optionally restricted to one name
        (sorted keys; see :meth:`counters`)."""
        self._flush()
        return {_render(key): instrument.summary()
                for key, instrument in sorted(self._histograms.items())
                if name is None or key[0] == name}

    def gauges(self, name: Optional[str] = None) -> Dict[str, float]:
        """Last gauge values, optionally restricted to one name
        (sorted keys; see :meth:`counters`)."""
        self._flush()
        return {_render(key): instrument.last
                for key, instrument in sorted(self._gauges.items())
                if name is None or key[0] == name}

    # -- instrument iteration (the timeline recorder's read path) ----------
    #
    # Sorted ``(rendered_key, instrument)`` pairs.  Handing out the
    # instrument objects themselves lets a sampler difference live values
    # in O(instruments) per window — no per-label keyed lookups — as a
    # writer does by keeping the instrument a keyed factory returned.

    def counter_items(self) -> List[Tuple[str, CounterInstrument]]:
        self._flush()
        return [(_render(key), inst)
                for key, inst in sorted(self._counters.items())]

    def histogram_items(self) -> List[Tuple[str, HistogramInstrument]]:
        self._flush()
        return [(_render(key), inst)
                for key, inst in sorted(self._histograms.items())]

    def gauge_items(self) -> List[Tuple[str, GaugeInstrument]]:
        self._flush()
        return [(_render(key), inst)
                for key, inst in sorted(self._gauges.items())]

    # -- aggregation across label sets (the SLO layer's read path) ---------

    @staticmethod
    def _matches(key: LabelKey, name: str, labels: Dict[str, Any]) -> bool:
        """Does an instrument key match ``name`` + a label *subset*?"""
        if key[0] != name:
            return False
        have = dict(key[1])
        return all(have.get(k) == str(v) for k, v in labels.items())

    def counter_total(self, name: str, **labels: Any) -> int:
        """Sum of every counter named ``name`` whose labels ⊇ ``labels``."""
        self._flush()
        return sum(inst.value for key, inst in sorted(self._counters.items())
                   if self._matches(key, name, labels))

    def histogram_count(self, name: str, **labels: Any) -> int:
        """Total observations across matching histograms."""
        self._flush()
        return sum(inst.count
                   for key, inst in sorted(self._histograms.items())
                   if self._matches(key, name, labels))

    def histogram_count_below(self, name: str, threshold: float,
                              **labels: Any) -> int:
        """Observations ``<= threshold`` across matching histograms."""
        self._flush()
        return sum(inst.count_below(threshold)
                   for key, inst in sorted(self._histograms.items())
                   if self._matches(key, name, labels))

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Everything, as one nested dict for tables and assertions."""
        self._flush()
        return {
            "counters": {_render(key): inst.value
                         for key, inst in sorted(self._counters.items())},
            "histograms": {_render(key): inst.summary()
                           for key, inst in
                           sorted(self._histograms.items())},
            "gauges": {_render(key): inst.last
                       for key, inst in sorted(self._gauges.items())},
        }

    def records(self) -> Iterator[Dict[str, Any]]:
        """Flat metric records for the JSONL exporter."""
        self._flush()
        for key, counter in sorted(self._counters.items()):
            yield {"kind": "metric", "type": "counter", "name": key[0],
                   "labels": dict(key[1]), "value": counter.value}
        for key, hist in sorted(self._histograms.items()):
            yield {"kind": "metric", "type": "histogram", "name": key[0],
                   "labels": dict(key[1]), "summary": hist.summary()}
        for key, gauge in sorted(self._gauges.items()):
            yield {"kind": "metric", "type": "gauge", "name": key[0],
                   "labels": dict(key[1]), "value": gauge.last,
                   "samples": len(gauge.series.samples)}

    def __repr__(self) -> str:
        return "<MetricsRegistry counters={} histograms={} gauges={}>".format(
            len(self._counters), len(self._histograms), len(self._gauges))


_metrics = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry consulted by instrumentation sites."""
    return _metrics


def set_metrics(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` (``None`` installs a fresh one); returns the
    previous one."""
    global _metrics
    previous = _metrics
    _metrics = registry if registry is not None else MetricsRegistry()
    return previous


class BoundCounterCache:
    """The counters of one instrument whose last label varies, kept on
    first use.

    For hot sites like per-destination retry counters: the keyed lookup
    (``registry.counter(name, node=..., dst=...)``) is paid once per
    label value, in the registry that was ambient at the first
    :meth:`get`, and the counter is kept from then on::

        self._retries = BoundCounterCache("chan.retries", "dst", node=name)
        ...
        self._retries.get(dst).add()
    """

    __slots__ = ("name", "label", "static", "_registry", "_bound")

    def __init__(self, name: str, label: str, **static: Any) -> None:
        self.name = name
        self.label = label
        self.static = static
        self._registry: Optional[MetricsRegistry] = None
        self._bound: Dict[str, CounterInstrument] = {}

    def get(self, value: str) -> CounterInstrument:
        counter = self._bound.get(value)
        if counter is None:
            if self._registry is None:
                self._registry = _metrics
            labels = dict(self.static)
            labels[self.label] = value
            counter = self._bound[value] = self._registry.counter(
                self.name, **labels)
        return counter


@contextlib.contextmanager
def use_metrics(registry: MetricsRegistry):
    """Scope ``registry`` as the process default, restoring on exit."""
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)
