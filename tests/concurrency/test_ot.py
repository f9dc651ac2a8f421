"""Tests for operation transformation: TP1, cores and networked sites."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.concurrency import (
    Delete,
    Insert,
    Noop,
    OTClientCore,
    OTClientSite,
    OTServerCore,
    OTServerSite,
    apply_op,
    apply_ops,
    xform,
)
from repro.errors import ConcurrencyError
from repro.net import Network, lan, wan
from repro.sim import Environment


# -- primitives ----------------------------------------------------------------

def test_insert_apply():
    assert apply_op("abc", Insert(1, "X")) == "aXbc"
    assert apply_op("", Insert(0, "X")) == "X"


def test_delete_apply():
    assert apply_op("abc", Delete(1)) == "ac"


def test_noop_apply():
    assert apply_op("abc", Noop()) == "abc"


def test_apply_validation():
    with pytest.raises(ConcurrencyError):
        apply_op("ab", Insert(5, "X"))
    with pytest.raises(ConcurrencyError):
        apply_op("ab", Delete(2))
    with pytest.raises(ConcurrencyError):
        Insert(-1, "X")
    with pytest.raises(ConcurrencyError):
        Insert(0, "XY")
    with pytest.raises(ConcurrencyError):
        Delete(-1)
    with pytest.raises(ConcurrencyError):
        apply_op("ab", "not-an-op")


def test_op_equality_and_repr():
    assert Insert(1, "a") == Insert(1, "a")
    assert Insert(1, "a") != Insert(2, "a")
    assert Delete(3) == Delete(3)
    assert Noop() == Noop()
    assert "Ins" in repr(Insert(0, "x"))
    assert "Del" in repr(Delete(0))
    assert "Noop" in repr(Noop())


def test_xform_insert_insert_tiebreak():
    a, b = Insert(2, "A"), Insert(2, "B")
    assert xform(a, b, a_wins=True) == Insert(2, "A")
    assert xform(a, b, a_wins=False) == Insert(3, "A")


def test_xform_delete_delete_same_position_cancels():
    assert xform(Delete(2), Delete(2), True) == Noop()


def ops_strategy(doc_len, max_ops=4):
    """Random non-empty op sequences valid against a document of
    ``doc_len``."""
    def build(draw):
        length = doc_len
        count = draw(st.integers(1, max_ops))
        ops = []
        for _ in range(count):
            if length == 0 or draw(st.booleans()):
                pos = draw(st.integers(0, length))
                ops.append(Insert(pos, draw(st.sampled_from("xyzw"))))
                length += 1
            else:
                ops.append(Delete(draw(st.integers(0, length - 1))))
                length -= 1
        return ops
    return st.composite(lambda draw: build(draw))()


BASE = "abcdef"


@settings(max_examples=200)
@given(ops_strategy(len(BASE)), ops_strategy(len(BASE)),
       st.sampled_from([("a", "b"), ("b", "a")]))
def test_tp1_convergence_property(ops_a, ops_b, sites):
    """TP1: apply(A + B') == apply(B + A') for any concurrent sequences:
    the sequencer's B' (B moved past A) and the grid a site walks to
    move A past its unacked B end at the same text."""
    site_a, site_b = sites
    server = OTServerCore(BASE)
    server.receive(site_a, 0, ops_a)
    _, b_prime = server.receive(site_b, 0, ops_b)
    client = OTClientCore(site_b, BASE)
    client.local_edit(ops_b)
    a_prime = client.server_remote(1, site_a, ops_a)
    assert apply_ops(apply_ops(BASE, ops_a), b_prime) == server.text
    assert apply_ops(apply_ops(BASE, ops_b), a_prime) == client.text
    assert client.text == server.text


def test_tp1_exhaustive_single_ops():
    """Every pair of single ops on a short doc satisfies TP1 exactly."""
    base = "abcd"
    singles = ([Insert(p, "X") for p in range(len(base) + 1)]
               + [Delete(p) for p in range(len(base))])
    for a in singles:
        for b in singles:
            for a_wins in (True, False):
                a1 = xform(a, b, a_wins)
                b1 = xform(b, a, not a_wins)
                left = apply_op(apply_op(base, a), b1)
                right = apply_op(apply_op(base, b), a1)
                assert left == right, (a, b, a_wins)


# -- protocol cores -----------------------------------------------------------

def test_server_core_sequences_ops():
    server = OTServerCore("ab")
    rev, ops = server.receive("site1", 0, [Insert(0, "X")])
    assert rev == 1
    assert server.text == "Xab"


def test_server_core_bad_revision():
    server = OTServerCore()
    with pytest.raises(ConcurrencyError):
        server.receive("s", 5, [])


def test_server_transforms_concurrent_ops():
    server = OTServerCore("abc")
    server.receive("s1", 0, [Insert(0, "X")])      # Xabc
    rev, transformed = server.receive("s2", 0, [Delete(2)])  # meant 'c'
    assert server.text == "Xabc".replace("c", "")
    assert transformed == [Delete(3)]


def test_client_core_immediate_local_application():
    client = OTClientCore("site1", "ab")
    send = client.local_edit([Insert(2, "c")])
    assert client.text == "abc"  # applied before any round-trip
    assert send == (0, [Insert(2, "c")])


def test_client_core_one_batch_in_flight():
    client = OTClientCore("site1")
    first = client.local_edit([Insert(0, "a")])
    second = client.local_edit([Insert(1, "b")])
    assert first is not None
    assert second is None  # queued behind the in-flight batch
    next_send = client.server_ack(1)
    assert next_send == (1, [Insert(1, "b")])


def test_client_core_ack_without_inflight_rejected():
    client = OTClientCore("site1")
    with pytest.raises(ConcurrencyError):
        client.server_ack(1)


def test_client_core_remote_transformed_against_pending():
    client = OTClientCore("siteB", "ab")
    client.local_edit([Insert(2, "c")])  # "abc", in flight
    applied = client.server_remote(1, "siteA", [Insert(0, "X")])
    assert client.text == "Xabc"
    assert applied == [Insert(0, "X")]


@pytest.mark.parametrize("deliver", [
    lambda client: client.server_ack(2),
    lambda client: client.server_remote(2, "siteA", [Insert(0, "X")]),
    lambda client: client.server_remote(0, "siteA", [Insert(0, "X")]),
    lambda client: client.server_ack(1.0),
], ids=["ack-ahead", "remote-ahead", "remote-stale", "ack-float"])
def test_client_core_takes_server_messages_in_revision_order(deliver):
    """A message applied out of order transforms against the wrong
    unacked ops: refused, naming the revision it carried."""
    client = OTClientCore("siteB", "ab")
    client.local_edit([Insert(2, "c")])
    with pytest.raises(ConcurrencyError, match="^new_rev must be the next "
                                               "revision 1: "):
        deliver(client)
    assert (client.text, client.revision) == ("abc", 0)


def test_core_roundtrip_two_sites_converge():
    """Drive the full protocol by hand: concurrent edits converge."""
    server = OTServerCore("base")
    alice = OTClientCore("alice", "base")
    bob = OTClientCore("bob", "base")

    send_a = alice.local_edit([Insert(0, "A")])
    send_b = bob.local_edit([Delete(3)])
    # Server receives alice first.
    rev_a, ops_a = server.receive("alice", *_unpack(send_a))
    rev_b, ops_b = server.receive("bob", *_unpack(send_b))
    # Deliver acks and remote broadcasts.
    alice.server_ack(rev_a)
    alice.server_remote(rev_b, "bob", ops_b)
    bob.server_remote(rev_a, "alice", ops_a)
    bob.server_ack(rev_b)
    assert alice.text == bob.text == server.text


def _unpack(send):
    base_rev, ops = send
    return base_rev, ops


# -- networked sites -----------------------------------------------------------

@pytest.fixture
def env():
    return Environment()


def make_ot(env, sites=3, initial=""):
    topo = lan(env, hosts=sites + 1)
    net = Network(env, topo)
    server = OTServerSite(net.host("host0"), initial=initial)
    clients = []
    for i in range(1, sites + 1):
        name = "host{}".format(i)
        client = OTClientSite(net.host(name), "host0", initial=initial)
        server.register(name)
        clients.append(client)
    return server, clients


def test_networked_local_edit_is_instant(env):
    server, (alice, bob, carol) = make_ot(env, initial="doc")
    alice.insert(3, "!")
    assert alice.text == "doc!"  # before any simulation time passes
    env.run()
    assert server.core.text == "doc!"
    assert bob.text == "doc!"
    assert carol.text == "doc!"


def test_networked_concurrent_edits_converge(env):
    server, (alice, bob, carol) = make_ot(env, initial="shared text")

    def alice_edits(env):
        alice.insert(0, "A: ")
        yield env.timeout(0.001)
        alice.delete(len(alice.text) - 1)

    def bob_edits(env):
        bob.insert(6, "-B-")
        yield env.timeout(0.002)
        bob.insert(0, ">")

    env.process(alice_edits(env))
    env.process(bob_edits(env))
    env.run()
    assert alice.text == bob.text == carol.text == server.core.text


def test_networked_many_random_edits_converge(env):
    from repro.sim import RandomStreams

    server, clients = make_ot(env, sites=4, initial="0123456789")
    rng = RandomStreams(7).stream("edits")

    def editor(env, client, count):
        for _ in range(count):
            yield env.timeout(rng.uniform(0.0001, 0.01))
            text_len = len(client.text)
            if text_len == 0 or rng.random() < 0.6:
                client.insert(rng.randrange(text_len + 1), "x")
            else:
                client.delete(rng.randrange(text_len))

    for client in clients:
        env.process(editor(env, client, 20))
    env.run()
    texts = [client.text for client in clients] + [server.core.text]
    assert all(text == texts[0] for text in texts)


def test_networked_applied_log_kinds(env):
    server, (alice, bob, carol) = make_ot(env, initial="")
    alice.insert(0, "hi")
    env.run()
    assert [kind for _, kind in alice.applied_log] == ["local"]
    assert [kind for _, kind in bob.applied_log] == ["remote"]


def test_remote_callback_invoked(env):
    applied = []
    topo = lan(env, hosts=3)
    net = Network(env, topo)
    server = OTServerSite(net.host("host0"))
    alice = OTClientSite(net.host("host1"), "host0")
    bob = OTClientSite(net.host("host2"), "host0",
                       on_remote=lambda ops: applied.append(ops))
    server.register("host1")
    server.register("host2")
    alice.insert(0, "Z")
    env.run()
    assert applied == [[Insert(0, "Z")]]


def test_replicas_converge_on_a_jittery_wan(env):
    """Per-packet jitter lets acks and remotes to one site overtake each
    other.  Integrated in arrival order, a remote is transformed against
    the wrong unacked ops and the first stray insert runs past the end of
    the text; the site holds each message back until its predecessor is
    in, and every replica converges."""
    net = Network(env, wan(env, sites=3, site_latency=0.02, jitter=0.005,
                           seed=3))
    hosts = ["site{}.host{}".format(i, j) for i in range(3) for j in range(2)]
    server = OTServerSite(net.host(hosts[0]))
    clients = []
    for name in hosts[1:]:
        clients.append(OTClientSite(net.host(name), hosts[0]))
        server.register(name)

    def typist(env, client, index):
        for key in range(40):
            client.insert((7 * key + index) % (len(client.text) + 1),
                          "abcde"[index])
            yield env.timeout(0.003)

    for index, client in enumerate(clients):
        env.process(typist(env, client, index))
    env.run()
    assert server.core.revision == 200
    for client in clients:
        assert client.text == server.core.text
        assert client.core.revision == 200 and not client.core.has_unacked
        assert not client._held
