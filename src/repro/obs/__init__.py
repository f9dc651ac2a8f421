"""Observability: causal tracing, the metrics registry and exporters.

The paper's management requirement (§4.2.1) — *"management functions
must be aware of the pattern of use of objects"* — needs a measurement
substrate.  This package provides it for every layer of the middleware:

* **Tracing** — :class:`Tracer` / :class:`Span` build causal trees across
  nucleus invocation, packet transit and remote execution, with contexts
  propagated through packet headers (:mod:`repro.obs.propagation`).  The
  process default is a zero-cost :class:`NoopTracer`; call
  :func:`enable_tracing` to collect.
* **Metrics** — :class:`MetricsRegistry` unifies counters, histograms and
  gauges behind named, labelled instruments with one :meth:`snapshot()
  <MetricsRegistry.snapshot>`.  Two rules (:mod:`repro.obs.metrics`):
  a number is kept once — a hot path keeps its own book and a flush
  hook derives the instruments from it on read — and a registry is
  bound once — a site that keeps an instrument takes it from the
  registry ambient at its first record, so install the registry (a
  fresh one per run) before anything records.  Measured, not assumed:
  across tier-1, the benches, ``bench/run.py``, ``replay`` on all 11
  workloads and ``examples/traced_invoke.py`` a registry was swapped
  under a component already in use 6 times, all inside the three tests
  of the rebinding this replaced (table: docs/performance.md).
* **Sampling** — :class:`Sampler` makes a deterministic keep/drop
  decision per trace (same seed + rate ⇒ same traces, run after run);
  the decision rides in packet headers so sampled traces stay complete
  across nuclei, and ``max_spans`` bounds retention with a ring buffer.
* **Profiling** — :class:`repro.obs.profile.SpanProfile` turns span
  enter/exit into per-operation / per-node / per-actor simulated-time
  accounting and folded flame-graph stacks; ``python -m
  repro.obs.profile`` runs it over any registered workload or dump.
* **SLOs** — :mod:`repro.obs.slo` evaluates declarative objectives over
  the registry with multi-window burn rates and records alert events.
* **Export** — :func:`dump_jsonl` (machine-readable) and
  :func:`dump_chrome_trace` (opens in ``about:tracing`` / Perfetto).
* **Timeline** — :class:`TimelineRecorder` snapshots instrument deltas
  at fixed sim-time windows (zero extra events, so replay digests are
  unaffected); :mod:`repro.obs.tables` rolls windows + spans into
  per-node/link/actor/op/object hot-spot tables with Zipf-skew
  coefficients; :mod:`repro.obs.critical` extracts per-trace critical
  paths.  The ``python -m repro.obs.dashboard`` CLI fronts all three,
  over a registered workload or any ``dump_jsonl`` file.
* **Flight recorder** — :class:`FlightRecorder` journals kernel-level
  decisions (dispatch, RNG draws, packet hops/drops, lock transitions,
  actor lifecycles) into a bounded ring with chained per-epoch digests;
  a run's identity (``repro.analysis.replay.run_digest``) ends in that
  chain, and :mod:`repro.obs.divergence` bisects two runs' chains to
  the first divergent epoch and its first mismatched record — printed
  by ``python -m repro.analysis.replay`` on a mismatch.

The CLI modules (``profile``, ``dashboard``, ``tables``, ``critical``)
are not re-exported here: importing the package must not import a
module that ``python -m`` is about to run.

Quick start::

    from repro import obs

    tracer = obs.enable_tracing(sampler=obs.Sampler(rate=0.1, seed=31))
    ... run any simulation ...
    obs.dump_jsonl("run.jsonl", tracer=tracer)
    obs.dump_chrome_trace("run.trace.json", tracer=tracer)
    obs.disable_tracing()
"""

from repro.obs.export import (
    META_SCHEMA,
    chrome_trace,
    dump_chrome_trace,
    dump_jsonl,
    load_jsonl,
    load_jsonl_tolerant,
    meta_record,
)
from repro.obs.flight import (
    NOOP_FLIGHT,
    FlightRecorder,
    NoopFlightRecorder,
    disable_flight,
    enable_flight,
    get_flight,
    set_flight,
    use_flight,
)
from repro.obs.metrics import (
    CounterInstrument,
    GaugeInstrument,
    HistogramInstrument,
    MetricsRegistry,
    get_metrics,
    set_metrics,
    use_metrics,
)
from repro.obs.propagation import TRACE_HEADER, extract, inject
from repro.obs.sampling import Sampler
from repro.obs.span import NOOP_SPAN, NoopSpan, Span, SpanContext
from repro.obs.timeline import TimelineRecorder, load_windows
from repro.obs.tracer import (
    NOOP_TRACER,
    NoopTracer,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "CounterInstrument",
    "FlightRecorder",
    "GaugeInstrument",
    "HistogramInstrument",
    "META_SCHEMA",
    "MetricsRegistry",
    "NOOP_FLIGHT",
    "NOOP_SPAN",
    "NOOP_TRACER",
    "NoopFlightRecorder",
    "NoopSpan",
    "NoopTracer",
    "Sampler",
    "Span",
    "SpanContext",
    "TRACE_HEADER",
    "TimelineRecorder",
    "Tracer",
    "chrome_trace",
    "disable_flight",
    "disable_tracing",
    "dump_chrome_trace",
    "dump_jsonl",
    "enable_flight",
    "enable_tracing",
    "extract",
    "get_flight",
    "get_metrics",
    "get_tracer",
    "inject",
    "load_jsonl",
    "load_jsonl_tolerant",
    "load_windows",
    "meta_record",
    "set_flight",
    "set_metrics",
    "set_tracer",
    "use_flight",
    "use_metrics",
    "use_tracer",
]
