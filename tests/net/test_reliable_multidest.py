"""Regression tests: reliable delivery to multiple destinations.

Guards against two real bugs found during development: a channel-global
sequence counter left per-receiver gaps that stalled in-order delivery,
and a first-arrival baseline dropped an earlier message whose first copy
was lost.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import Network, ReliableChannel, Topology
from repro.sim import Environment, RandomStreams


def make_star(env, receivers, loss, seed):
    streams = RandomStreams(seed)
    topo = Topology(env)
    topo.add_link("sender", "hub", latency=0.002, loss=loss,
                  rng=streams.stream("up"))
    for i in range(receivers):
        topo.add_link("r{}".format(i), "hub", latency=0.002, loss=loss,
                      rng=streams.stream("down-{}".format(i)))
    return Network(env, topo)


def test_interleaved_sends_to_two_destinations():
    env = Environment()
    net = make_star(env, receivers=2, loss=0.0, seed=1)
    sender = ReliableChannel(net.host("sender"))
    receivers = [ReliableChannel(net.host("r{}".format(i)))
                 for i in range(2)]
    got = {0: [], 1: []}

    def consumer(env, index):
        for _ in range(3):
            packet = yield receivers[index].receive()
            got[index].append(packet.payload)

    procs = [env.process(consumer(env, i)) for i in range(2)]
    # Interleave: r0, r1, r0, r1, ... (the global-counter trap).
    for i in range(3):
        sender.send("r0", payload="r0-{}".format(i))
        sender.send("r1", payload="r1-{}".format(i))
    for proc in procs:
        env.run(proc)
    assert got[0] == ["r0-0", "r0-1", "r0-2"]
    assert got[1] == ["r1-0", "r1-1", "r1-2"]


def test_lost_first_message_not_skipped():
    """seq 2 arriving before seq 1's retransmit must be held back."""
    env = Environment()
    topo = Topology(env)
    link = topo.add_link("a", "b", latency=0.002)
    net = Network(env, topo)
    sender = ReliableChannel(net.host("a"), ack_timeout=0.1,
                             max_retries=50)
    receiver = ReliableChannel(net.host("b"), ack_timeout=0.1,
                               max_retries=50)
    got = []

    def consumer(env):
        for _ in range(2):
            packet = yield receiver.receive()
            got.append(packet.payload)

    proc = env.process(consumer(env))
    # Drop exactly the first copy of message 1: send it while the link
    # drops everything, then restore before its retransmission.
    link.loss = 0.999999
    sender.send("b", payload="first").defuse()

    def heal(env):
        yield env.timeout(0.05)
        link.loss = 0.0
        sender.send("b", payload="second").defuse()

    env.process(heal(env))
    env.run(proc)
    assert got == ["first", "second"]


@settings(max_examples=10)
@given(st.integers(0, 10_000), st.floats(0.0, 0.4),
       st.integers(2, 4))
def test_multidest_exactly_once_in_order_under_loss(seed, loss,
                                                    receivers):
    env = Environment()
    net = make_star(env, receivers=receivers, loss=loss, seed=seed)
    sender = ReliableChannel(net.host("sender"), ack_timeout=0.03,
                             max_retries=300)
    channels = {i: ReliableChannel(net.host("r{}".format(i)),
                                   ack_timeout=0.03, max_retries=300)
                for i in range(receivers)}
    got = {i: [] for i in range(receivers)}

    def consumer(env, index):
        for _ in range(5):
            packet = yield channels[index].receive()
            got[index].append(packet.payload)

    procs = [env.process(consumer(env, i)) for i in range(receivers)]
    for i in range(5):
        for r in range(receivers):
            sender.send("r{}".format(r),
                        payload=(r, i), size=50).defuse()
    for proc in procs:
        env.run(proc)
    for r in range(receivers):
        assert got[r] == [(r, i) for i in range(5)]
