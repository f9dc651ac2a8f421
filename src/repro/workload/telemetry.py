"""Replayable demonstration workloads for the telemetry stack.

Three catalogue entries (:data:`repro.workload.catalogue.WORKLOADS`),
so ``python -m repro replay``, ``profile`` and ``dashboard`` all see
them:

* ``traced-rpc`` — three named clients at one WAN site invoking a shared
  object at another, traced under a deterministic head
  :class:`~repro.obs.sampling.Sampler` with a bounded span ring.  Shows
  that the sampling decision propagates with the packet headers: every
  sampled trace is complete end-to-end (client, transit hops, server),
  every unsampled trace costs nothing.
* ``slo-burn`` — a service driven through healthy → degraded → recovered
  phases while an :class:`~repro.obs.slo.SLOMonitor` evaluates a
  multi-window burn-rate objective over its ``service.requests``
  counters.  The alert fires during the degradation and clears after
  recovery; both transitions land in the workload result.
* ``timeline-demo`` — a deliberately *skewed* RPC fan-in (Zipf operation
  mix, one hot client host) with a
  :class:`~repro.obs.timeline.TimelineRecorder` attached, so the
  dashboard's hot-spot tables and critical-path analysis have a
  non-uniform workload to bite on.  The windows ride inside the result
  dict, which makes the replay digest cover the whole timeline.

All return JSON-serialisable dicts that are pure functions of the seed,
so ``python -m repro replay`` can digest-check them.  When a recording
tracer is already installed (``python -m repro profile`` does this) the
``traced-rpc`` workload traces into it instead of its own, so the
profiler sees the spans.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict

from repro.net import Network, wan
from repro.node import ODPRuntime
from repro.obs import slo
from repro.obs.critical import critical_summary
from repro.obs.export import span_record
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.profile import SpanProfile
from repro.obs.sampling import Sampler
from repro.obs.tables import dimension_table
from repro.obs.timeline import TimelineRecorder
from repro.obs.tracer import Tracer, get_tracer, use_tracer
from repro.sim import Environment, RandomStreams, exponential, zipf_index

CLIENTS = 3
REQUESTS = 8
THINK_MEAN = 0.4
SAMPLE_RATE = 0.5
MAX_SPANS = 256


def traced_rpc_workload(seed: int = 31) -> Dict[str, Any]:
    """WAN RPC fan-in under deterministic head sampling."""
    ambient = get_tracer()
    if ambient.enabled:
        tracer = ambient
        scope = contextlib.nullcontext()
    else:
        tracer = Tracer(sampler=Sampler(rate=SAMPLE_RATE, seed=seed),
                        max_spans=MAX_SPANS)
        scope = use_tracer(tracer)

    with scope, use_metrics(MetricsRegistry()):
        env = Environment()
        topo = wan(env, sites=2, hosts_per_site=2, site_latency=0.03)
        net = Network(env, topo)
        runtime = ODPRuntime(net, registry_node="site0.host0")
        server = runtime.nucleus("site0.host0")
        capsule = server.create_capsule("cap")
        board = server.create_object(capsule, "board",
                                     state={"posts": 0})

        def post(caller, state, args):
            state["posts"] += 1
            return state["posts"]

        board.operation("post", post)

        rng = RandomStreams(seed).stream("traced-rpc")
        results = {}

        def client_proc(env, name, host):
            nucleus = runtime.nucleus(host)
            done = 0
            for step in range(REQUESTS):
                yield env.timeout(exponential(rng, THINK_MEAN))
                with tracer.span("user.request", env, node=host,
                                 actor=name, step=step) as span:
                    yield nucleus.invoke(board.oid, "post", None,
                                         parent=span)
                    done += 1
            results[name] = done

        hosts = ["site1.host0", "site1.host1", "site0.host1"]
        for i in range(CLIENTS):
            name = "client-{}".format(i)
            env.process(client_proc(env, name, hosts[i]), name=name)
        env.run()

    sampled = sorted({span.trace_id for span in tracer.spans},
                     key=lambda t: int(t[1:]) if t[1:].isdigit() else 0)
    roots = [span for span in tracer.spans if span.parent_id is None]
    profile = SpanProfile.from_tracer(tracer)
    return {
        "workload": "traced-rpc",
        "seed": seed,
        "sample_rate": SAMPLE_RATE if tracer.sampler is not None else 1.0,
        "completed": {name: results[name] for name in sorted(results)},
        "posts": board.state["posts"],
        "sampled_traces": sampled,
        "sampled_roots": sorted(span.name for span in roots),
        "spans_retained": len(tracer.spans),
        "spans_sampled_out": tracer.sampled_out,
        "spans_evicted": tracer.evicted,
        "profile": profile.by_name(),
        "env": env.stats(),
    }


# -- slo-burn ---------------------------------------------------------------

HEALTHY_UNTIL = 20.0
DEGRADED_UNTIL = 45.0
RUN_UNTIL = 90.0
REQUEST_PERIOD = 0.25
DEGRADED_ERROR_EVERY = 2     # every 2nd request fails while degraded
HEALTHY_ERROR_EVERY = 50     # background error rate within budget
SLO_TARGET = 0.9
BURN_WINDOWS = ((10.0, 2.0, 4.0, "page"),)


def slo_burn_workload(seed: int = 31) -> Dict[str, Any]:
    """A service degradation that fires, then clears, a burn-rate alert."""
    # A scoped registry keeps the run self-contained: gauge time series
    # restart from zero, and repeated runs stay digest-identical.
    metrics = MetricsRegistry()

    def service(env):
        n = 0
        while env.now < RUN_UNTIL:
            yield env.timeout(REQUEST_PERIOD)
            n += 1
            degraded = HEALTHY_UNTIL <= env.now < DEGRADED_UNTIL
            every = DEGRADED_ERROR_EVERY if degraded else HEALTHY_ERROR_EVERY
            outcome = "err" if n % every == 0 else "ok"
            metrics.counter("service.requests", outcome=outcome).add()

    objective = slo.CounterRatioSLO(
        "service-availability",
        good=("service.requests", {"outcome": "ok"}),
        bad=("service.requests", {"outcome": "err"}),
        target=SLO_TARGET)
    with use_metrics(metrics):
        env = Environment()
        monitor = slo.SLOMonitor(env, [objective], windows=BURN_WINDOWS,
                                 until=RUN_UNTIL)
        env.process(service(env), name="service")
        env.run()

    fired = [e for e in monitor.events if e["event"] == "fired"]
    cleared = [e for e in monitor.events if e["event"] == "cleared"]
    return {
        "workload": "slo-burn",
        "seed": seed,
        "target": SLO_TARGET,
        "events": monitor.events,
        "fired": len(fired),
        "cleared": len(cleared),
        "first_fired_at": fired[0]["at"] if fired else None,
        "first_cleared_at": cleared[0]["at"] if cleared else None,
        "active": [a.slo for a in monitor.active_alerts()],
        "requests": metrics.counters("service.requests"),
        "env": env.stats(),
    }


# -- timeline-demo ----------------------------------------------------------

TL_CLIENTS = 4
TL_REQUESTS = 10
TL_THINK_MEAN = 0.3
TL_RESOLUTION = 0.5
TL_MAX_SPANS = 2048
TL_OPS = ("post", "read", "tag")
TL_OP_SKEW = 1.3


def timeline_demo_workload(seed: int = 31) -> Dict[str, Any]:
    """Skewed RPC fan-in recorded onto a sim-time timeline.

    Four clients (two sharing one deliberately hot host) invoke a
    shared board; the operation per request is Zipf-drawn over
    ``TL_OPS`` so the op table shows real skew.  A
    :class:`~repro.obs.timeline.TimelineRecorder` at
    ``TL_RESOLUTION``-second windows rides the run; the recorded
    windows, the hot-spot rollups and the critical-path bottlenecks all
    land in the (JSON-serialisable, digest-stable) result.
    """
    ambient = get_tracer()
    if ambient.enabled:
        tracer = ambient
        scope = contextlib.nullcontext()
    else:
        # No sampler: every trace is retained, so critical paths are
        # complete end to end.
        tracer = Tracer(max_spans=TL_MAX_SPANS)
        scope = use_tracer(tracer)

    metrics = MetricsRegistry()
    with scope, use_metrics(metrics):
        env = Environment()
        topo = wan(env, sites=2, hosts_per_site=2, site_latency=0.03)
        net = Network(env, topo)
        runtime = ODPRuntime(net, registry_node="site0.host0")
        server = runtime.nucleus("site0.host0")
        capsule = server.create_capsule("cap")
        board = server.create_object(
            capsule, "board", state={"post": 0, "read": 0, "tag": 0})

        def bump(which):
            def operation(caller, state, args):
                state[which] += 1
                return state[which]
            return operation

        for name in TL_OPS:
            board.operation(name, bump(name))

        rng = RandomStreams(seed).stream("timeline-demo")
        recorder = TimelineRecorder(env, resolution=TL_RESOLUTION)

        def client_proc(env, name, host, requests):
            nucleus = runtime.nucleus(host)
            for step in range(requests):
                yield env.timeout(exponential(rng, TL_THINK_MEAN))
                op = TL_OPS[zipf_index(rng, len(TL_OPS), TL_OP_SKEW)]
                with tracer.span("user.request", env, node=host,
                                 actor=name, op=op) as span:
                    yield nucleus.invoke(board.oid, op, None, parent=span)

        # site1.host0 hosts two clients: the "hot node" the tables should
        # rank first; later clients also send progressively fewer
        # requests so per-node totals are properly skewed, not merely
        # unequal.
        placements = ["site1.host0", "site1.host0", "site1.host1",
                      "site0.host1"]
        for i in range(TL_CLIENTS):
            name = "client-{}".format(i)
            env.process(
                client_proc(env, name, placements[i],
                            max(2, TL_REQUESTS // (i + 1))),
                name=name)
        env.run()
    recorder.finish()

    windows = list(recorder.records())
    spans = [span_record(span) for span in tracer.spans]
    node_table = dimension_table("node", windows, spans)
    op_table = dimension_table("op", windows, spans)
    critical = critical_summary(spans)
    return {
        "workload": "timeline-demo",
        "seed": seed,
        "resolution": TL_RESOLUTION,
        "windows": windows,
        "windows_flushed": recorder.flushed,
        "board": dict(sorted(board.state.items())),
        "top_node": node_table["rows"][0]["key"]
        if node_table["rows"] else None,
        "node_zipf_skew": node_table["zipf_skew"],
        "op_totals": {row["key"]: row["total"]
                      for row in op_table["rows"]},
        "bottlenecks": [
            {"op": row["op"], "self": row["self"], "share": row["share"]}
            for row in critical["bottlenecks"][:5]],
        "critical_traces": critical["traces"],
        "spans_retained": len(tracer.spans),
        "env": env.stats(),
    }
