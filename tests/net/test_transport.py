"""Tests for reliable channels and RPC."""

import pytest

from repro.errors import TransportError
from repro.net import Network, ReliableChannel, RpcEndpoint, Topology
from repro.net.transport import RemoteException, RpcError
from repro.sim import Environment, RandomStreams


@pytest.fixture
def env():
    return Environment()


def make_net(env, loss=0.0, latency=0.005):
    topo = Topology(env)
    topo.add_link("a", "b", latency=latency, loss=loss,
                  rng=RandomStreams(42).stream("link"))
    net = Network(env, topo)
    return net, net.host("a"), net.host("b")


def test_reliable_send_acks(env):
    net, a, b = make_net(env)
    sender = ReliableChannel(a)
    receiver = ReliableChannel(b)

    def root(env):
        done = sender.send("b", payload="msg", size=50)
        packet = yield receiver.receive()
        yield done
        return packet.payload

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == "msg"


def test_reliable_survives_loss(env):
    net, a, b = make_net(env, loss=0.4)
    sender = ReliableChannel(a, ack_timeout=0.05, max_retries=30)
    receiver = ReliableChannel(b, ack_timeout=0.05, max_retries=30)
    got = []

    def consumer(env):
        for _ in range(10):
            packet = yield receiver.receive()
            got.append(packet.payload)

    def producer(env):
        for i in range(10):
            yield sender.send("b", payload=i, size=20)

    consume = env.process(consumer(env))
    env.process(producer(env))
    env.run(consume)
    assert got == list(range(10))
    assert sender.retransmissions > 0


def test_reliable_fifo_order_preserved(env):
    net, a, b = make_net(env)
    sender = ReliableChannel(a)
    receiver = ReliableChannel(b)
    got = []

    def consumer(env):
        for _ in range(5):
            packet = yield receiver.receive()
            got.append(packet.payload)

    proc = env.process(consumer(env))
    for i in range(5):
        sender.send("b", payload=i)
    env.run(proc)
    assert got == [0, 1, 2, 3, 4]


def test_reliable_gives_up_when_unreachable(env):
    topo = Topology(env)
    link = topo.add_link("a", "b", latency=0.001)
    net = Network(env, topo)
    a, b = net.host("a"), net.host("b")
    ReliableChannel(b)
    sender = ReliableChannel(a, ack_timeout=0.01, max_retries=2)
    link.set_up(False)
    failed = []

    def root(env):
        try:
            yield sender.send("b", payload="x")
        except TransportError:
            failed.append(True)

    proc = env.process(root(env))
    env.run(proc)
    assert failed == [True]


def test_reliable_max_retries_validation(env):
    net, a, b = make_net(env)
    with pytest.raises(TransportError):
        ReliableChannel(a, max_retries=-1)


def test_rpc_roundtrip(env):
    net, a, b = make_net(env)
    client = RpcEndpoint(a)
    server = RpcEndpoint(b)
    server.register("add", lambda caller, args: args[0] + args[1])

    def root(env):
        result = yield client.call("b", "add", (2, 3))
        return result

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == 5
    assert server.calls_served == 1


def test_rpc_generator_handler_simulates_work(env):
    net, a, b = make_net(env, latency=0.001)
    client = RpcEndpoint(a)
    server = RpcEndpoint(b)

    def slow_echo(caller, args):
        yield env.timeout(0.5)
        return ("echo", args, caller)

    server.register("echo", slow_echo)

    def root(env):
        result = yield client.call("b", "echo", "hi")
        return (env.now, result)

    proc = env.process(root(env))
    env.run(proc)
    at, result = proc.value
    assert result == ("echo", "hi", "a")
    assert at >= 0.5


def test_rpc_unknown_method_raises_remote_exception(env):
    net, a, b = make_net(env)
    client = RpcEndpoint(a)
    RpcEndpoint(b)
    errors = []

    def root(env):
        try:
            yield client.call("b", "missing")
        except RemoteException as error:
            errors.append(str(error))

    proc = env.process(root(env))
    env.run(proc)
    assert errors and "missing" in errors[0]


def test_rpc_handler_exception_forwarded(env):
    net, a, b = make_net(env)
    client = RpcEndpoint(a)
    server = RpcEndpoint(b)

    def bad(caller, args):
        raise ValueError("nope")

    server.register("bad", bad)
    errors = []

    def root(env):
        try:
            yield client.call("b", "bad")
        except RemoteException as error:
            errors.append(str(error))

    proc = env.process(root(env))
    env.run(proc)
    assert errors and "ValueError" in errors[0]


def test_rpc_timeout(env):
    topo = Topology(env)
    link = topo.add_link("a", "b", latency=0.001)
    net = Network(env, topo)
    a, b = net.host("a"), net.host("b")
    client = RpcEndpoint(a)
    RpcEndpoint(b)
    link.set_up(False)
    errors = []

    def root(env):
        try:
            yield client.call("b", "anything", timeout=0.1)
        except RpcError:
            errors.append(env.now)

    proc = env.process(root(env))
    env.run(proc)
    assert errors == [0.1]


def test_rpc_concurrent_calls(env):
    net, a, b = make_net(env)
    client = RpcEndpoint(a)
    server = RpcEndpoint(b)
    server.register("double", lambda caller, args: args * 2)

    def root(env):
        calls = [client.call("b", "double", i) for i in range(5)]
        results = []
        for call in calls:
            results.append((yield call))
        return sorted(results)

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == [0, 2, 4, 6, 8]
