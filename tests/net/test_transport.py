"""Tests for reliable channels and RPC."""

import pytest

from repro.errors import TransportError
from repro.faults import FaultInjector, FaultSchedule
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


def test_a_receive_handler_gets_each_packet_once_in_sender_order(env):
    """Under loss a later packet can arrive first, and a lost ack brings
    a duplicate; the handler still sees each payload once, in order."""
    net, a, b = make_net(env, loss=0.4)
    sender = ReliableChannel(a, ack_timeout=0.05, max_retries=30)
    receiver = ReliableChannel(b, ack_timeout=0.05, max_retries=30)
    got = []
    receiver.on_receive(lambda packet: got.append(packet.payload))
    for i in range(10):
        sender.send("b", payload=i, size=20)
    env.run()
    assert got == list(range(10))
    assert sender.retransmissions > 0


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


def unsteady(env, *downs):
    """A 5 ms ``a``–``b`` link, down over each ``(from, to)`` of
    ``downs``; returns the channels at ``a`` and ``b``, the receiver's
    deliveries going to a list it also returns."""
    net, a, b = make_net(env)
    schedule = FaultSchedule()
    for start, end in downs:
        schedule.link_down(start, "a", "b", up_at=end)
    FaultInjector(env, net, schedule)
    receiver = ReliableChannel(b)
    got = []
    receiver.on_receive(lambda packet: got.append(
        (packet.payload, env.now)))
    return ReliableChannel(a), got


def test_a_send_that_gave_up_leaves_no_gap_for_the_next(env):
    """The first send is abandoned while the link is down; the next,
    sent once it is back, carries the new base and is delivered."""
    sender, got = unsteady(env, (0.05, 2.5))
    outcomes = []

    def root(env):
        for payload in ("lost", "after"):
            yield env.timeout(0.1)
            try:
                yield sender.send("b", payload)
                outcomes.append((payload, "ok"))
            except TransportError:
                outcomes.append((payload, "gave up"))
            yield env.timeout(1.0)

    env.process(root(env))
    env.run()
    assert outcomes == [("lost", "gave up"), ("after", "ok")]
    assert [payload for payload, _ in got] == ["after"]


def test_a_give_up_hands_on_what_was_acked_behind_it(env):
    """The first send's every attempt meets the link down, but the
    second gets through between two cuts and is acked, held behind the
    first.  The first's give-up sends a notice of the new base, which
    hands the second on once the link is back."""
    sender, got = unsteady(env, (0.05, 0.15), (0.25, 2.45))
    outcomes = {}

    def root(env):
        yield env.timeout(0.1)
        first = sender.send("b", "first")
        yield env.timeout(0.1)
        second = sender.send("b", "second")
        for name, send in (("first", first), ("second", second)):
            try:
                yield send
                outcomes[name] = "ok"
            except TransportError:
                outcomes[name] = "gave up"

    env.process(root(env))
    env.run()
    assert outcomes == {"first": "gave up", "second": "ok"}
    # The notice left at 1.9 (0.1 + 9 x 0.2); its attempt at 2.5 is
    # the first after the link came back.
    assert got == [("second", pytest.approx(2.5, abs=0.01))]
    assert sender.gave_up == 1 and sender.inflight() == 0


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
