"""Cross-cutting property tests: serialisability, OT protocol fuzzing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.concurrency import (
    Insert,
    Delete,
    OTClientCore,
    OTServerCore,
    SharedStore,
    TransactionManager,
)
from repro.errors import TransactionAborted
from repro.sim import Environment, RandomStreams


# -- serialisability of the transaction baseline -------------------------------

@settings(max_examples=20)
@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 4))
def test_no_lost_updates_under_random_contention(seed, users, keys):
    """Every committed increment survives: the defining 2PL guarantee.

    Random users run read-modify-write transactions over random keys
    with retries on deadlock; at the end, each counter equals the number
    of successful increments applied to it.
    """
    env = Environment()
    tm = TransactionManager(env, SharedStore())
    key_names = ["k{}".format(i) for i in range(keys)]
    for key in key_names:
        tm.store.write(key, 0)
    committed = {key: 0 for key in key_names}
    rng = RandomStreams(seed).stream("txns")

    def user(env, name):
        for _ in range(6):
            yield env.timeout(rng.random() * 0.1)
            targets = sorted(rng.sample(key_names,
                                        rng.randint(1, len(key_names))))
            while True:
                txn = tm.begin(name)
                try:
                    values = {}
                    for key in targets:
                        values[key] = yield from tm.read(txn, key)
                        yield env.timeout(rng.random() * 0.05)
                    for key in targets:
                        yield from tm.write(txn, key, values[key] + 1)
                    yield from tm.commit(txn)
                    for key in targets:
                        committed[key] += 1
                    break
                except TransactionAborted:
                    yield env.timeout(rng.random() * 0.02)

    for i in range(users):
        env.process(user(env, "user-{}".format(i)))
    env.run()
    for key in key_names:
        assert tm.store.read(key) == committed[key]


# -- OT protocol fuzzing over the pure cores -------------------------------------

def valid_op(rng, length):
    if length == 0 or rng.random() < 0.6:
        return Insert(rng.randrange(length + 1),
                      "abcdefgh"[rng.randrange(8)])
    return Delete(rng.randrange(length))


@settings(max_examples=30)
@given(st.integers(0, 100_000), st.integers(2, 4), st.integers(1, 8))
def test_ot_protocol_converges_under_random_schedules(seed, sites,
                                                      edits_per_site):
    """Drive the full client/server OT protocol with a random message
    scheduler: all replicas converge to the server text, always."""
    rng = RandomStreams(seed).stream("fuzz")
    server = OTServerCore("seed-text")
    clients = {"site{}".format(i): OTClientCore("site{}".format(i),
                                                "seed-text")
               for i in range(sites)}
    #: In-flight messages: (kind, destination, payload) — FIFO per lane
    #: but lanes are drained in random order (models network timing).
    lanes = {name: [] for name in clients}     # server -> client
    to_server = []                             # client -> server
    pending_edits = {name: edits_per_site for name in clients}

    def dispatch_send(name, send):
        if send is not None:
            to_server.append((name, send))

    progress = True
    while progress:
        progress = False
        choices = []
        if to_server:
            choices.append("server")
        for name, lane in lanes.items():
            if lane:
                choices.append(name)
        editors = [name for name, left in pending_edits.items()
                   if left > 0]
        choices.extend("edit:" + name for name in editors)
        if not choices:
            break
        choice = choices[rng.randrange(len(choices))]
        progress = True
        if choice == "server":
            name, (base_rev, ops) = to_server.pop(0)
            rev, transformed = server.receive(name, base_rev, ops)
            lanes[name].append(("ack", rev, None, None))
            for other in clients:
                if other != name:
                    lanes[other].append(("remote", rev, name,
                                         transformed))
        elif choice.startswith("edit:"):
            name = choice.split(":", 1)[1]
            client = clients[name]
            pending_edits[name] -= 1
            op = valid_op(rng, len(client.text))
            dispatch_send(name, client.local_edit([op]))
        else:
            kind, rev, origin, ops = lanes[choice].pop(0)
            client = clients[choice]
            if kind == "ack":
                dispatch_send(choice, client.server_ack(rev))
            else:
                client.server_remote(rev, origin, ops)

    for name, client in clients.items():
        assert not client.has_unacked
        assert client.text == server.text, name


# -- reliable channel exactly-once under heavy loss --------------------------------

@settings(max_examples=10)
@given(st.integers(0, 10_000), st.floats(0.0, 0.5))
def test_reliable_channel_exactly_once(seed, loss):
    from repro.net import Network, ReliableChannel, Topology

    env = Environment()
    topo = Topology(env)
    topo.add_link("a", "b", latency=0.002, loss=loss,
                  rng=RandomStreams(seed).stream("loss"))
    net = Network(env, topo)
    sender = ReliableChannel(net.host("a"), ack_timeout=0.02,
                             max_retries=200)
    receiver = ReliableChannel(net.host("b"), ack_timeout=0.02,
                               max_retries=200)
    got = []

    def consumer(env):
        for _ in range(8):
            packet = yield receiver.receive()
            got.append(packet.payload)

    def producer(env):
        for i in range(8):
            yield sender.send("b", payload=i, size=20)

    consume = env.process(consumer(env))
    env.process(producer(env))
    env.run(consume)
    assert got == list(range(8))
