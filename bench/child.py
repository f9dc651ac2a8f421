"""One execution of one workload, in a fresh interpreter.

``run.py`` starts this file once per repetition (``PYTHONHASHSEED=0``,
default GC, nothing else running), so every repetition pays the same
imports, starts from the same heap and reports its own peak RSS.  The
last line of standard output is one JSON object; the exit status is 1
when a correctness gate failed.

The timed region is every ``env.run(...)`` call that executes the
workload, made slice by slice (:func:`run_sliced`); ``wall_s`` is their
sum.  With ``--profile`` that region runs under ``cProfile``
and the result also carries host time by layer (see ``layers.py``);
end-to-end metrics are never taken from such a run.
"""

import time

_STARTED = time.perf_counter()   # before ``import repro``: part of set-up

import argparse
import cProfile
import hashlib
import heapq
import json
import os
import resource
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)


def percentile(ordered, q):
    """Nearest-rank percentile of an ascending list (q in 0..100)."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def spin():
    """A fixed piece of pure-Python work (about 50 µs on the reference
    box, ``run.REFERENCE_SPIN``): how long it takes tells how fast the
    host is running right now."""
    heap = []
    push, pop = heapq.heappush, heapq.heappop
    total = 0.0
    for index in range(96):
        push(heap, (index * 0.618 % 1.0, index))
    while heap:
        when, index = pop(heap)
        total += when * index
    return total


def run_sliced(env, step, until):
    """Run the workload to ``until`` (``None``: until the event queue
    drains) in slices of ``step`` simulated seconds; returns the host
    seconds each slice took and, interleaved with them, the host
    seconds each :func:`spin` took.

    Same seed, same slice boundaries, same work per slice — so the
    harness can take each slice's fastest time across repetitions and
    filter out the host's interference (see ``run.py``).
    """
    clock = time.perf_counter
    forever = float("inf")
    slices, spins = [], []
    index = 0
    while True:
        index += 1
        target = index * step
        last = until is not None and target >= until
        started = clock()
        env.run(until=until if last else target)
        done = clock()
        spin()
        spins.append(clock() - done)
        slices.append(done - started)
        if last or (until is None and env.peek() == forever):
            return slices, spins


def _boundaries():
    """Metric name → the public function whose calls it measures."""
    from repro.awareness.events import AwarenessBus
    from repro.concurrency.locks import LockTable
    from repro.concurrency.ot import OTClientCore, OTServerCore
    from repro.groups.group import GroupEndpoint
    from repro.groups.ordering import CausalDelivery
    from repro.net.network import Host
    from repro.node.runtime import Nucleus
    from repro.obs.tracer import Tracer
    from repro.qos.monitor import QoSMonitor
    from repro.sessions.floor import FcfsFloor
    from repro.streams.binding import StreamBinding
    from repro.streams.media import MediaSink
    return {
        "net.send_us": Host.send,
        "node.invoke_us": Nucleus.invoke,
        "groups.broadcast_us": GroupEndpoint.broadcast,
        "groups.receive_us": CausalDelivery.on_receive,
        "concurrency.ot_server_receive_us": OTServerCore.receive,
        "concurrency.ot_remote_apply_us": OTClientCore.server_remote,
        "concurrency.lock_acquire_us": LockTable.acquire,
        "sessions.floor_request_us": FcfsFloor.request,
        "awareness.publish_us": AwarenessBus.publish,
        "streams.send_frame_us": StreamBinding.send_frame,
        "streams.sink_receive_us": MediaSink.receive,
        "qos.record_frame_us": QoSMonitor.record_frame,
        "obs.start_span_us": Tracer.start_span,
    }


def _traced(profiler):
    """Per-layer numbers of a profiled run (JSON-able)."""
    from layers import LAYERS, UNATTRIBUTED, fold
    from repro.concurrency.ot import xform
    from repro.sim import Environment
    profile = fold(profiler)
    return {
        "self_s": {layer: profile.self_s.get(layer, 0.0)
                   for layer in LAYERS + (UNATTRIBUTED,)},
        "us": {name: profile.us_per_call(function)
               for name, function in _boundaries().items()},
        "calls": {"sim.timeout_calls": profile.calls(Environment.timeout),
                  "sim.process_calls": profile.calls(Environment.process),
                  "xforms": profile.calls(xform)},
        "folded": profile.folded_lines(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--param", action="append", default=[],
                        help="k=v override of a workload parameter")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS
    from repro.obs.metrics import MetricsRegistry, use_metrics

    params = {}
    for item in args.param:
        key, _, value = item.partition("=")
        params[key] = float(value) if "." in value else int(value)

    registry = MetricsRegistry()
    with use_metrics(registry):
        workload = WORKLOADS[args.workload](args.seed, args.scale,
                                            **params)
        setup_s = time.perf_counter() - _STARTED
        profiler = cProfile.Profile() if args.profile else None
        if profiler is not None:
            profiler.enable()
        slices, spins = run_sliced(workload.env, workload.STEP,
                                   workload.until)
        if profiler is not None:
            profiler.disable()
        outcome = workload.finish()
        series = len(registry.counter_items()) \
            + len(registry.histogram_items()) \
            + len(registry.gauge_items())

    ordered = sorted(outcome.latencies)
    samples = len(ordered)
    if args.scale >= 1.0 and not params:
        # Enough samples that the 99th percentile has 50 beyond it.
        outcome.require(samples >= 5000,
                        "only {} latency samples".format(samples))
    ok = outcome.attempted - outcome.failed
    simulated = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "tries": outcome.tries,
        "try_failures": outcome.try_failures,
        "latency_samples": samples,
        "sim_latency_p50_ms": percentile(ordered, 50) * 1e3,
        "sim_latency_p99_ms": percentile(ordered, 99) * 1e3,
        "ok_ratio": 1.0 - outcome.try_failures / outcome.tries
        if outcome.tries else 0.0,
        "sim_s": outcome.sim_now,
        "events": outcome.events,
    }
    # What observability must never change: everything but ``obs.*``.
    counts = dict(outcome.counts)
    counts["obs.metric_series"] = series
    digest = hashlib.sha256(json.dumps(
        {"simulated": simulated, "domain": outcome.domain,
         "counts": {name: value for name, value in counts.items()
                    if not name.startswith("obs.")}},
        sort_keys=True, default=repr).encode("utf-8")).hexdigest()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "ops_ok": ok,
        "setup_s": setup_s,
        "wall_s": sum(slices),
        "slices": slices,
        "spins": spins,
        "simulated": simulated,
        "counts": counts,
        "digest": digest,
        "violations": outcome.violations,
    }
    if profiler is not None:
        result["traced"] = _traced(profiler)
    # Peak RSS last: ``ru_maxrss`` is KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 1 if outcome.violations else 0


if __name__ == "__main__":
    sys.exit(main())
