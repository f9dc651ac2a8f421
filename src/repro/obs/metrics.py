"""The metrics registry and one class per kind of number.

``histogram()`` returns a :class:`Tally` and ``gauge()`` a
:class:`TimeSeries`, the classes a layer also keeps for itself
(``MediaSink.frame_latency``); a layer's named counts are a
:class:`Counter` book.  Instruments are named and labelled::

    metrics = env.metrics
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
``records()``, the ``*_items()`` iteration, the ``positions()`` the
timeline recorder takes at window boundaries, and the SLO
aggregations — runs the hooks first, so
readers always see fresh values while writers schedule zero flush events
and pay one int add per record.  Hooks must be idempotent when nothing
has moved.  The book is the only copy: the registry's view of it is
derived on read, never written beside it.

*A layer reads its environment's observers.*  An ``Environment``
binds the ambient registry once, when it is built, as ``env.metrics``
(with the tracer, sanitizer and flight recorder), and every layer that
holds the environment records there, whatever is ambient later.  So
build the environment inside the registry's scope (``use_metrics``), a
fresh registry per run; ``repro.run.run`` does both.  Two environments
built under two registries stay apart even when stepped in turn
outside any scope.  A site that keeps an instrument
(``registry.counter(...)`` returns the instrument itself; keeping it
skips the re-keying) takes it from ``env.metrics``.
"""

from __future__ import annotations

import contextlib
import math
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

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


class Tally:
    """A distribution of observations (``registry.histogram()``)."""

    __slots__ = ("name", "values")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.values: List[float] = []

    def record(self, value: float) -> None:
        """Add one observation."""
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)

    @property
    def minimum(self) -> float:
        return min(self.values) if self.values else 0.0

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation (0.0 with <2 observations)."""
        n = len(self.values)
        if n < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(sum((v - mean) ** 2 for v in self.values) / n)

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100) by linear interpolation."""
        if not self.values:
            return 0.0
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        ordered = sorted(self.values)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    @property
    def median(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def summary(self) -> Dict[str, float]:
        """All headline statistics as a dict (for table printing)."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "median": self.median,
            "p95": self.p95,
            "stddev": self.stddev,
        }

    def __repr__(self) -> str:
        return "<Tally {} n={} mean={:.6g}>".format(
            self.name or "?", self.count, self.mean)


class TimeSeries:
    """``(time, value)`` samples in time order (``registry.gauge()``)."""

    __slots__ = ("name", "samples")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.samples: List[Tuple[float, float]] = []

    def set(self, value: float, at: float) -> None:
        """Sample ``value`` at time ``at``; times must be non-decreasing."""
        samples = self.samples
        if samples and at < samples[-1][0]:
            raise ValueError("time went backwards in series " + self.name)
        samples.append((float(at), float(value)))

    @property
    def last(self) -> float:
        return self.samples[-1][1] if self.samples else 0.0


class Counter:
    """A set of named monotonically increasing counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def incr(self, key: str, by: int = 1) -> None:
        """Increase ``key`` by ``by`` (creating it at zero)."""
        self._counts[key] = self._counts.get(key, 0) + by

    def __getitem__(self, key: str) -> int:
        return self._counts.get(key, 0)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        return dict(self._counts)


class MetricsRegistry:
    """All instruments for one collection scope, keyed by name + labels."""

    def __init__(self) -> None:
        self._counters: Dict[LabelKey, CounterInstrument] = {}
        self._histograms: Dict[LabelKey, Tally] = {}
        self._gauges: Dict[LabelKey, TimeSeries] = {}
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

    def histogram(self, name: str, **labels: Any) -> Tally:
        if name in self._flushed_names:
            self._flush()
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Tally(name)
        return instrument

    def gauge(self, name: str, **labels: Any) -> TimeSeries:
        if name in self._flushed_names:
            self._flush()
        key = _key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = TimeSeries(name)
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

    # -- instrument iteration ----------------------------------------------
    #
    # Sorted ``(rendered_key, instrument)`` pairs.  Handing out the
    # instrument objects themselves lets a reader difference live values
    # in O(instruments) — no per-label keyed lookups — as a writer does
    # by keeping the instrument a keyed factory returned.

    def counter_items(self) -> List[Tuple[str, CounterInstrument]]:
        self._flush()
        return [(_render(key), inst)
                for key, inst in sorted(self._counters.items())]

    def histogram_items(self) -> List[Tuple[str, Tally]]:
        self._flush()
        return [(_render(key), inst)
                for key, inst in sorted(self._histograms.items())]

    def gauge_items(self) -> List[Tuple[str, TimeSeries]]:
        self._flush()
        return [(_render(key), inst)
                for key, inst in sorted(self._gauges.items())]

    # -- positions (the timeline recorder's window boundary) ---------------
    #
    # Every instrument's position after one flush, in registration order
    # (instruments are never removed, so a later read lines them up with
    # :meth:`registered`): what the recorder needs to difference windows
    # later, without rendering or sorting a key at the boundary.

    def positions(self) -> Tuple[List[Any], List[int], List[int]]:
        """Counter values, histogram lengths and gauge sample counts."""
        self._flush()
        return ([inst.value for inst in self._counters.values()],
                [len(inst.values) for inst in self._histograms.values()],
                [len(inst.samples) for inst in self._gauges.values()])

    def registered(self) -> Tuple[Dict[LabelKey, CounterInstrument],
                                  Dict[LabelKey, Tally],
                                  Dict[LabelKey, TimeSeries]]:
        """The counters, histograms and gauges by key, in registration
        order (the registry's own dicts: read, never write them)."""
        return self._counters, self._histograms, self._gauges

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
                   "samples": len(gauge.samples)}

    def __repr__(self) -> str:
        return "<MetricsRegistry counters={} histograms={} gauges={}>".format(
            len(self._counters), len(self._histograms), len(self._gauges))


_metrics = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The ambient registry, which an ``Environment`` binds when built."""
    return _metrics


class BoundCounterCache:
    """The counters of one instrument whose last label varies, kept on
    first use.

    For hot sites like per-destination retry counters: the keyed lookup
    (``registry.counter(name, node=..., dst=...)``) is paid once per
    label value, in the registry the cache was built with, and the
    counter is kept from then on::

        self._retries = BoundCounterCache(env.metrics, "chan.retries",
                                          "dst", node=name)
        ...
        self._retries.get(dst).add()
    """

    __slots__ = ("registry", "name", "label", "static", "_bound")

    def __init__(self, registry: MetricsRegistry, name: str, label: str,
                 **static: Any) -> None:
        self.registry = registry
        self.name = name
        self.label = label
        self.static = static
        self._bound: Dict[str, CounterInstrument] = {}

    def get(self, value: str) -> CounterInstrument:
        counter = self._bound.get(value)
        if counter is None:
            labels = dict(self.static)
            labels[self.label] = value
            counter = self._bound[value] = self.registry.counter(
                self.name, **labels)
        return counter


@contextlib.contextmanager
def use_metrics(registry: MetricsRegistry):
    """Scope ``registry`` as the process default, restoring on exit."""
    global _metrics
    previous, _metrics = _metrics, registry
    try:
        yield registry
    finally:
        _metrics = previous
