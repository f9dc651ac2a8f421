"""A layer records into the observers of its environment.

An ``Environment`` binds the ambient registry, tracer, sanitizer and
flight recorder once, when it is built, and every layer that holds it
records there: whatever is ambient when the layer is driven sees
nothing.  So two environments built under different observers stay
apart even when stepped in turn with no scope around either.
"""

import json

import pytest

from repro.analysis.hb import ConflictSanitizer, use_sanitizer
from repro.concurrency.locks import EXCLUSIVE, STYLES, LockTable
from repro.faults.policies import FaultPolicies, RetryPolicy
from repro.net import Network, RpcEndpoint, Topology, lan
from repro.node import ODPRuntime
from repro.obs.metrics import BoundCounterCache, MetricsRegistry, use_metrics
from repro.obs.tracer import Tracer, use_tracer
from repro.sessions import Session
from repro.sim import Environment


def _names(registry):
    """The instrument names ``registry`` holds."""
    return {key.split("{")[0] for kind in registry.snapshot().values()
            for key in kind}


def _pair(env):
    topology = Topology(env)
    topology.add_link("a", "b", latency=0.001)
    network = Network(env, topology)
    network.host("b")
    return network


def _send(env):
    network = _pair(env)
    network.host("a").send("b", size=64)
    network.host("a").send("b", size=64)
    env.run()
    return {"net.sent", "net.delivered", "net.node.sent", "net.bytes",
            "net.delivery_latency"}


def _call(env):
    network = _pair(env)
    RpcEndpoint(network.host("b")).register("echo", lambda c, args: args)
    caller = RpcEndpoint(network.host("a"), policies=FaultPolicies(
        retry=RetryPolicy(base=0.01, max_retries=1)))
    caller.call("b", "echo", 1)
    caller.call("nowhere", "echo", 2, timeout=0.01).defuse()
    env.run()
    return {"rpc.inflight", "rpc.retries"}


def _invoke(env):
    runtime = ODPRuntime(Network(env, lan(env, hosts=2)), "host0")
    home = runtime.nucleus("host0")
    obj = home.create_object(home.create_capsule("cap"), "counter")
    obj.operation("read", lambda caller, state, args: 0)
    env.run(runtime.nucleus("host1").invoke(obj.oid, "read"))
    env.run(home.invoke(obj.oid, "read"))
    return {"node.invocations", "node.op.invocations", "rpc.latency"}


def _acquire(style):
    def drive(env):
        table = LockTable(env, style=style)

        def writer(env, name):
            grant = yield table.acquire("doc", name, EXCLUSIVE)
            yield env.timeout(1.0)
            grant.release()

        for name in ("ann", "bob"):
            env.process(writer(env, name))
        env.run()
        return {"lock.wait"}
    return drive


def _cache(env):
    BoundCounterCache(env.metrics, "chan.retries", "dst",
                      node="a").get("b").add()
    return {"chan.retries"}


_LAYERS = [("network", _send), ("rpc-endpoint", _call),
           ("nucleus", _invoke)] \
    + [("lock-table-" + style, _acquire(style)) for style in STYLES] \
    + [("bound-counter-cache", _cache)]


@pytest.mark.parametrize("drive", [layer[1] for layer in _LAYERS],
                         ids=[layer[0] for layer in _LAYERS])
def test_a_layer_records_into_its_envs_observers(drive):
    home = MetricsRegistry()
    with use_metrics(home):
        env = Environment()
    later = MetricsRegistry()
    with use_metrics(later), use_tracer(Tracer()) as tracer, \
            use_sanitizer(ConflictSanitizer()) as sanitizer:
        names = drive(env)
    assert names <= _names(home)
    assert _names(later) == set()
    assert len(tracer) == 0 and sanitizer.summary()["actors"] == []


class _World:
    """A network, a nucleus, a lock table and a session store, built
    under observers of their own; its hosts and objects carry ``tag``."""

    def __init__(self, tag):
        self.tag = tag
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.sanitizer = ConflictSanitizer()
        with use_metrics(self.metrics), use_tracer(self.tracer), \
                use_sanitizer(self.sanitizer):
            self.env = env = Environment()
        server, client = tag + "-host0", tag + "-host1"
        topology = Topology(env)
        topology.add_link(server, client, latency=0.002)
        self.network = Network(env, topology)
        runtime = ODPRuntime(self.network, server)
        home = runtime.nucleus(server)
        board = home.create_object(home.create_capsule("cap"), "board")
        board.operation("post", lambda caller, state, args: args)
        nucleus = runtime.nucleus(client)
        table = LockTable(env)
        store = Session(env, tag).store

        def editor(env, name):
            # A write under the lock, ordered by its hand-off; then a
            # post and a second write after release, which nothing
            # orders against the next holder's.
            grant = yield table.acquire("doc", name, EXCLUSIVE)
            yield env.timeout(0.1)
            store.write("doc", name, writer=name, at=env.now)
            grant.release()
            yield nucleus.invoke(board.oid, "post", name)
            store.write("doc", name, writer=name, at=env.now)

        for index in range(2):
            name = "{}-editor{}".format(tag, index)
            env.process(editor(env, name), name=name)

    def observed(self):
        """Everything the world's observers hold, as one string."""
        return json.dumps({
            "metrics": self.metrics.snapshot(),
            "spans": [[span.name, span.attributes]
                      for span in self.tracer.spans],
            "conflicts": [conflict.to_dict()
                          for conflict in self.sanitizer.conflicts]},
            sort_keys=True, default=str)


def test_two_environments_stepped_in_turn_keep_their_observers_apart():
    worlds = [_World("left"), _World("right")]
    while any(world.env._queue for world in worlds):
        for world in worlds:
            if world.env._queue:
                world.env.step()
    for world, other in (worlds, worlds[::-1]):
        assert {"net.sent", "node.invocations", "rpc.latency",
                "lock.wait"} <= _names(world.metrics)
        assert world.metrics.counter_total("net.sent") \
            == world.network.counters["sent"] > 0
        assert {"actor.run", "lock.acquire", "node.invoke", "rpc.call",
                "rpc.serve", "net.transmit"} \
            <= {span.name for span in world.tracer.spans}
        assert world.sanitizer.conflicts
        assert {conflict.obj for conflict in world.sanitizer.conflicts} \
            == {world.tag + "-store/doc"}
        seen = world.observed()
        assert world.tag + "-host0" in seen
        assert other.tag + "-" not in seen
