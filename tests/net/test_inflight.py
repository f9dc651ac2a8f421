"""Tests for pending-operation accounting on channels and RPC.

The liveness contract: every send/call started eventually resolves —
succeeds or fails cleanly — and ``inflight()`` returns to zero.  The
``faulty-rpc`` bench gate reads exactly these counters.
"""

import pytest

from repro.net import Network, ReliableChannel, RpcEndpoint, Topology
from repro.obs.metrics import MetricsRegistry
from repro.sim import Environment, RandomStreams


@pytest.fixture
def env():
    return Environment()


def make_net(env, loss=0.0):
    topo = Topology(env)
    topo.add_link("a", "b", latency=0.005, loss=loss,
                  rng=RandomStreams(42).stream("link"))
    net = Network(env, topo)
    return net, net.host("a"), net.host("b")


def test_channel_inflight_rises_and_drains(env):
    net, a, b = make_net(env)
    sender = ReliableChannel(a)
    receiver = ReliableChannel(b)
    observed = []

    def root(env):
        done = sender.send("b", payload="x", size=50)
        observed.append(sender.inflight())
        yield done
        observed.append(sender.inflight())

    env.run(env.process(root(env)))
    # send() only starts the process; the +1 lands when it runs.
    env.run()
    assert observed == [0, 0] or observed == [1, 0]
    assert sender.inflight() == 0
    assert receiver.inflight() == 0


def test_channel_inflight_nonzero_while_awaiting_ack(env):
    net, a, b = make_net(env)
    sender = ReliableChannel(a)
    ReliableChannel(b)
    sender.send("b", payload="x", size=50)
    env.run(until=0.001)  # data packet still in flight, no ack yet
    assert sender.inflight() == 1
    env.run()
    assert sender.inflight() == 0


def test_channel_give_up_resolves_inflight(env):
    net, a, b = make_net(env)
    net.topology.link_between("a", "b").set_up(False)
    net.topology.invalidate_routes()
    sender = ReliableChannel(a, ack_timeout=0.05, max_retries=2)
    failures = []

    def root(env):
        try:
            yield sender.send("b", payload="x", size=50)
        except Exception as error:  # noqa: BLE001 - expected give-up
            failures.append(type(error).__name__)

    env.run(env.process(root(env)))
    env.run()
    assert failures  # the send failed cleanly...
    assert sender.inflight() == 0  # ...and is no longer pending


def test_rpc_inflight_resolves_on_reply_and_timeout(env):
    net, a, b = make_net(env)
    caller = RpcEndpoint(a)
    server = RpcEndpoint(b)
    server.register("echo", lambda caller_name, args: args)

    def root(env):
        value = yield caller.call("b", "echo", 7)
        return value

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == 7
    assert caller.inflight() == 0

    # A timed-out call must also resolve the counter.
    server.register("hang", lambda c, a: (yield env.timeout(100.0)))
    errors = []

    def root2(env):
        try:
            yield caller.call("b", "hang", None, timeout=0.1)
        except Exception as error:  # noqa: BLE001 - expected timeout
            errors.append(type(error).__name__)

    env.run(env.process(root2(env)))
    env.run(until=env.now + 1.0)
    assert errors == ["RpcError"]
    assert caller.inflight() == 0


def test_inflight_gauges_recorded_in_scoped_registry(env):
    registry = env.metrics
    net, a, b = make_net(env)
    sender = ReliableChannel(a)
    ReliableChannel(b)
    caller = RpcEndpoint(a)
    server = RpcEndpoint(b)
    server.register("echo", lambda c, args: args)

    def root(env):
        yield sender.send("b", payload="x", size=50)
        yield caller.call("b", "echo", 1)

    env.run(env.process(root(env)))
    env.run()
    gauges = registry.gauges()
    assert gauges.get("chan.inflight{node=a}") == 0.0
    assert gauges.get("rpc.inflight{node=a}") == 0.0


def test_gauge_set_tolerates_time_rewind():
    # A registry can outlive an environment; a fresh env's t=0 sample
    # must be dropped, not raise "time went backwards".
    from repro.net.transport import _gauge_sample

    series = MetricsRegistry().gauge("chan.inflight", node="x")
    _gauge_sample(series, 1, 5.0)
    _gauge_sample(series, 2, 1.0)  # stale: ignored
    _gauge_sample(series, 3, 6.0)
    assert [(t, v) for t, v in series.samples] == [(5.0, 1), (6.0, 3)]
