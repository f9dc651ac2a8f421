"""Observability: causal tracing, the metrics registry and exporters.

The paper's management requirement (§4.2.1) — *"management functions
must be aware of the pattern of use of objects"* — needs a measurement
substrate.  This package provides it for every layer of the middleware:

* **Tracing** — :class:`Tracer` / :class:`Span` build causal trees across
  nucleus invocation, packet transit and remote execution, with contexts
  propagated through packet headers (:mod:`repro.obs.propagation`).  The
  process default is a zero-cost :class:`NoopTracer`; scope a
  :class:`Tracer` with :func:`use_tracer` to collect.
* **Metrics** — :class:`MetricsRegistry` unifies counters, histograms and
  gauges behind named, labelled instruments with one :meth:`snapshot()
  <MetricsRegistry.snapshot>`.  Two rules (:mod:`repro.obs.metrics`):
  a number is kept once — a hot path keeps its own book and a flush
  hook derives the instruments from it on read — and a layer reads its
  environment's observers — an ``Environment`` binds the ambient
  registry, tracer, sanitizer and flight recorder when it is built, so
  build it inside their scopes (a fresh registry per run), and what is
  ambient later sees nothing of it.
* **Sampling** — :class:`Sampler` makes a deterministic keep/drop
  decision per trace (same seed + rate ⇒ same traces, run after run);
  the decision rides in packet headers so sampled traces stay complete
  across nuclei, and ``max_spans`` bounds retention with a ring buffer.
* **Profiling** — :class:`repro.obs.profile.SpanProfile` turns span
  enter/exit into per-operation / per-node / per-actor simulated-time
  accounting and folded flame-graph stacks; ``python -m repro
  profile`` runs it over any catalogue workload or dump.
* **SLOs** — :mod:`repro.obs.slo` evaluates declarative objectives over
  the registry with multi-window burn rates and records alert events.
* **Export** — :func:`dump_jsonl` (machine-readable) and
  :func:`dump_chrome_trace` (opens in ``about:tracing`` / Perfetto).
* **Timeline** — :class:`TimelineRecorder` snapshots instrument deltas
  at fixed sim-time windows (zero extra events, so replay digests are
  unaffected); :mod:`repro.obs.tables` rolls windows + spans into
  per-node/link/actor/op/object hot-spot tables with Zipf-skew
  coefficients; :mod:`repro.obs.critical` extracts per-trace critical
  paths.  ``python -m repro dashboard`` fronts all three, over a
  catalogue workload or any ``dump_jsonl`` file.
* **Flight recorder** — :class:`FlightRecorder` journals kernel-level
  decisions (RNG draws, packet hops/drops, lock transitions, actor
  lifecycles) into a bounded ring with chained 0.5 s epoch digests,
  reading the clock per record, never called per event;
  a run's identity (``repro.run.Result.digest``) ends in that
  chain, and :mod:`repro.obs.divergence` bisects two runs' chains to
  the first divergent epoch and its first mismatched record — printed
  by ``python -m repro replay`` on a mismatch.

The report modules (``profile``, ``dashboard``, ``tables``,
``critical``, ``divergence``) are not re-exported here: import them from
their module.

Each observer is scoped with ``use_X()``, which always restores the one
before, and read with ``get_X()`` once, by the ``Environment`` built in
the scope (``env.metrics``, ``env.tracer``, ``env.sanitizer``); a
catalogue workload is run with all of them scoped by
:func:`repro.run.run`.

Quick start::

    from repro import obs

    tracer = obs.Tracer(sampler=obs.Sampler(rate=0.1, seed=31))
    with obs.use_tracer(tracer), obs.use_metrics(obs.MetricsRegistry()):
        ... build and run any simulation ...
    obs.dump_jsonl("run.jsonl", tracer=tracer)
    obs.dump_chrome_trace("run.trace.json", tracer=tracer)
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
    get_flight,
    use_flight,
)
from repro.obs.metrics import (
    CounterInstrument,
    MetricsRegistry,
    get_metrics,
    use_metrics,
)
from repro.obs.propagation import TRACE_HEADER, inject
from repro.obs.sampling import Sampler
from repro.obs.span import NOOP_SPAN, NoopSpan, Span, SpanContext
from repro.obs.timeline import TimelineRecorder, load_windows
from repro.obs.tracer import (
    NOOP_TRACER,
    NoopTracer,
    Tracer,
    get_tracer,
    use_tracer,
)

__all__ = [
    "CounterInstrument",
    "FlightRecorder",
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
    "dump_chrome_trace",
    "dump_jsonl",
    "get_flight",
    "get_metrics",
    "get_tracer",
    "inject",
    "load_jsonl",
    "load_jsonl_tolerant",
    "load_windows",
    "meta_record",
    "use_flight",
    "use_metrics",
    "use_tracer",
]
