"""Traced invocation: follow one RPC from nucleus to nucleus.

Scopes a recording tracer and a fresh metrics registry, runs a client at
one WAN site invoking an object hosted at another (with simulated
think-time between calls), then exports the trace three ways:

* a JSONL dump (spans + metrics) for ``python -m repro dashboard``,
* a Chrome ``trace_event`` file that opens in ``about:tracing``/Perfetto,
* the dashboard over that dump, printed directly.

Run:  PYTHONPATH=src python examples/traced_invoke.py \\
          [--out run.jsonl] [--chrome run.trace.json]
"""

import argparse

from repro import obs
from repro.__main__ import main as repro_cli
from repro.net import Network, wan
from repro.node import ODPRuntime
from repro.sim import Environment, RandomStreams, exponential


def build(env):
    """Two WAN sites; a counter object at site0, a client at site1."""
    topo = wan(env, sites=2, hosts_per_site=1, site_latency=0.03)
    net = Network(env, topo)
    runtime = ODPRuntime(net, registry_node="site0.host0")
    server = runtime.nucleus("site0.host0")
    client = runtime.nucleus("site1.host0")
    capsule = server.create_capsule("cap")
    counter = server.create_object(capsule, "counter", state={"n": 0})

    def incr(caller, state, args):
        state["n"] += args
        return state["n"]

    counter.operation("incr", incr)
    return runtime, client, counter


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="traced_invoke.jsonl",
                        help="JSONL dump path")
    parser.add_argument("--chrome", default="traced_invoke.trace.json",
                        help="Chrome trace_event path")
    options = parser.parse_args(argv)

    with obs.use_tracer(obs.Tracer()) as tracer, \
            obs.use_metrics(obs.MetricsRegistry()) as registry:
        env = Environment()
        runtime, client, counter = build(env)
        rng = RandomStreams(11).stream("think")

        def user(env):
            # Each iteration roots one trace: a think-time span whose
            # child is the node.invoke span (which in turn parents the
            # rpc.call, per-link transit and remote rpc.serve spans).
            for step in range(3):
                with tracer.span("user.think", env, node="site1.host0",
                                 step=step) as think:
                    yield env.timeout(exponential(rng, 0.5))
                    result = yield client.invoke(counter.oid, "incr", 1,
                                                 parent=think)
            return result

        proc = env.process(user(env))
        env.run(proc)

    print("final counter value:", proc.value)
    print("sim time: {:.4f}s, spans recorded: {}".format(
        env.now, len(tracer.spans)))
    print("event loop:", env.stats())

    lines = obs.dump_jsonl(options.out, tracer=tracer, metrics=registry)
    events = obs.dump_chrome_trace(options.chrome, tracer=tracer)
    print("wrote {} JSONL lines to {}".format(lines, options.out))
    print("wrote {} trace events to {} (open in about:tracing)".format(
        events, options.chrome))

    return repro_cli(["dashboard", options.out])


if __name__ == "__main__":
    raise SystemExit(main())
