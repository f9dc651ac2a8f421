"""Tests for delivery-ordering buffers, including permutation properties."""

import pytest
from hypothesis import given, strategies as st

from repro.groups import (
    CausalDelivery,
    FifoDelivery,
    GroupMessage,
    TotalDelivery,
    UnorderedDelivery,
    VectorClock,
    make_ordering,
)


def msg(sender, seq=None, vector=None, global_seq=None, payload=None):
    return GroupMessage(sender, payload, seq=seq, vector=vector,
                        global_seq=global_seq)


def test_unordered_delivers_immediately():
    buffer = UnorderedDelivery()
    m = msg("a")
    assert buffer.on_receive(m) == [m]


def test_fifo_in_order_passthrough():
    buffer = FifoDelivery()
    m1, m2 = msg("a", seq=1), msg("a", seq=2)
    assert buffer.on_receive(m1) == [m1]
    assert buffer.on_receive(m2) == [m2]


def test_fifo_holds_out_of_order():
    buffer = FifoDelivery()
    m1, m2, m3 = msg("a", seq=1), msg("a", seq=2), msg("a", seq=3)
    assert buffer.on_receive(m3) == []
    assert buffer.on_receive(m1) == [m1]
    assert buffer.on_receive(m2) == [m2, m3]


def test_fifo_is_per_sender():
    buffer = FifoDelivery()
    a2 = msg("a", seq=2)
    b1 = msg("b", seq=1)
    assert buffer.on_receive(a2) == []
    assert buffer.on_receive(b1) == [b1]  # b unaffected by a's gap


def test_fifo_drops_duplicates():
    buffer = FifoDelivery()
    m1 = msg("a", seq=1)
    buffer.on_receive(m1)
    assert buffer.on_receive(msg("a", seq=1)) == []


def test_fifo_requires_seq():
    with pytest.raises(ValueError):
        FifoDelivery().on_receive(msg("a"))


def test_causal_direct_dependency_held():
    # b's message depends on having seen a's first message.
    buffer = CausalDelivery("c")
    from_a = msg("a", vector={"a": 1})
    from_b = msg("b", vector={"a": 1, "b": 1})
    assert buffer.on_receive(from_b) == []
    assert buffer.held_count == 1
    assert buffer.on_receive(from_a) == [from_a, from_b]
    assert buffer.held_count == 0


def test_causal_concurrent_messages_flow():
    buffer = CausalDelivery("c")
    from_a = msg("a", vector={"a": 1})
    from_b = msg("b", vector={"b": 1})
    assert buffer.on_receive(from_b) == [from_b]
    assert buffer.on_receive(from_a) == [from_a]


def test_causal_implies_sender_fifo():
    buffer = CausalDelivery("c")
    second = msg("a", vector={"a": 2})
    first = msg("a", vector={"a": 1})
    assert buffer.on_receive(second) == []
    assert buffer.on_receive(first) == [first, second]


def test_causal_requires_vector():
    with pytest.raises(ValueError):
        CausalDelivery("x").on_receive(msg("a"))


def test_total_delivers_by_global_seq():
    buffer = TotalDelivery()
    m1, m2, m3 = (msg("a", global_seq=1), msg("b", global_seq=2),
                  msg("a", global_seq=3))
    assert buffer.on_receive(m2) == []
    assert buffer.on_receive(m1) == [m1, m2]
    assert buffer.on_receive(m3) == [m3]


def test_total_drops_duplicates():
    buffer = TotalDelivery()
    buffer.on_receive(msg("a", global_seq=1))
    assert buffer.on_receive(msg("a", global_seq=1)) == []


def test_total_requires_global_seq():
    with pytest.raises(ValueError):
        TotalDelivery().on_receive(msg("a"))


def test_make_ordering_factory():
    assert isinstance(make_ordering("fifo", "x"), FifoDelivery)
    assert isinstance(make_ordering("causal", "x"), CausalDelivery)
    assert isinstance(make_ordering("total", "x"), TotalDelivery)
    assert isinstance(make_ordering("unordered", "x"), UnorderedDelivery)
    with pytest.raises(ValueError):
        make_ordering("bogus", "x")


# -- property-based: arbitrary arrival orders ------------------------------

@given(st.permutations(list(range(1, 8))))
def test_fifo_property_delivery_in_send_order(arrival):
    """However messages arrive, FIFO delivers 1..n in order, complete."""
    buffer = FifoDelivery()
    delivered = []
    for seq in arrival:
        delivered.extend(buffer.on_receive(msg("s", seq=seq)))
    assert [m.seq for m in delivered] == list(range(1, 8))


@given(st.permutations(list(range(1, 8))))
def test_total_property_delivery_by_global_seq(arrival):
    buffer = TotalDelivery()
    delivered = []
    for gseq in arrival:
        delivered.extend(buffer.on_receive(msg("s", global_seq=gseq)))
    assert [m.global_seq for m in delivered] == list(range(1, 8))


# -- reference model: causal delivery as it was before the one-vector buffer --


class ModelCausalDelivery:
    """The hold-back buffer this repository shipped before CausalDelivery
    kept its counts in place: a fresh VectorClock per delivery, a rescan
    of a copy of the held list on every arrival, a generator per test.
    Kept here, unoptimised, as the reference the real buffer must match
    call for call."""

    def __init__(self):
        self.delivered = VectorClock()
        self._held = []

    def on_receive(self, message):
        self._held.append(message)
        deliverable = []
        progressed = True
        while progressed:
            progressed = False
            for held in list(self._held):
                if self._ready(held):
                    self._held.remove(held)
                    self.delivered = self.delivered.increment(held.sender)
                    deliverable.append(held)
                    progressed = True
        return deliverable

    def _ready(self, message):
        vector = message.vector
        sender = message.sender
        if vector.get(sender, 0) != self.delivered.get(sender) + 1:
            return False
        return all(self.delivered.get(p) >= t
                   for p, t in vector.items() if p != sender)

    @property
    def held_count(self):
        return len(self._held)


class ModelMember:
    """A member as GroupEndpoint used to run one: the buffer plus a
    *second* vector, advanced on send and merged on every delivery."""

    def __init__(self, name):
        self.name = name
        self.buffer = ModelCausalDelivery()
        self.sent_vector = {}
        self.log = []

    def broadcast(self, payload):
        self.sent_vector[self.name] = self.sent_vector.get(self.name, 0) + 1
        message = msg(self.name, vector=dict(self.sent_vector),
                      payload=payload)
        assert self.receive(message) == [message]  # loopback
        return message

    def receive(self, message):
        released = self.buffer.on_receive(message)
        for delivered in released:
            for process, time in delivered.vector.items():
                if time > self.sent_vector.get(process, 0):
                    self.sent_vector[process] = time
            self.log.append(delivered)
        return released


def stamps(messages):
    return [(m.sender, m.payload, m.vector) for m in messages]


class LockstepMember:
    """The real buffer and the model fed the same sends and arrivals;
    every call must return the same messages in the same order."""

    def __init__(self, name):
        self.name = name
        self.buffer = CausalDelivery(name)
        self.model = ModelMember(name)

    def broadcast(self, payload):
        message = msg(self.name, payload=payload)
        self.buffer.stamp(message)
        expected = self.model.broadcast(payload)
        assert message.vector == expected.vector
        assert self.buffer.on_receive(message) == [message]  # loopback
        self.check()
        return message, expected

    def receive(self, message, expected):
        released = self.buffer.on_receive(message)
        assert stamps(released) == stamps(self.model.receive(expected))
        self.check()
        return released

    def check(self):
        assert self.buffer.held_count == self.model.buffer.held_count
        assert self.buffer.delivered == self.model.buffer.delivered
        assert self.buffer.delivered == VectorClock(self.model.sent_vector)


@st.composite
def causal_history(draw):
    """A random run of a causal group of 2-6 members, and an observer.

    The run is a script of steps: ``("send", i)`` — member i broadcasts
    — or ``("arrive", i, k)`` — the k-th message still in flight to
    member i arrives (the network reorders freely).  Members stamp from
    what has reached them, so vectors are sparse and local broadcasts
    interleave with remote arrivals.  The last element is the order in
    which a pure observer is later shown every message sent.
    """
    size = draw(st.integers(2, 6))
    member = st.integers(0, size - 1)
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("send"), member),
        st.tuples(st.just("arrive"), member, st.integers(0, 1000))),
        min_size=1, max_size=60))
    sends = sum(1 for step in steps if step[0] == "send")
    return size, steps, draw(st.permutations(range(sends)))


def play(size, steps):
    """Run a script through lockstep members; every (real, model) pair sent."""
    members = [LockstepMember("m{}".format(i)) for i in range(size)]
    in_flight = [[] for _ in members]
    sent = []
    for step in steps:
        target = members[step[1]]
        if step[0] == "send":
            pair = target.broadcast(len(sent))
            sent.append(pair)
            for i, other in enumerate(members):
                if other is not target:
                    in_flight[i].append(pair)
        elif in_flight[step[1]]:
            queue = in_flight[step[1]]
            target.receive(*queue.pop(step[2] % len(queue)))
    return sent


@given(causal_history())
def test_causal_buffer_matches_the_two_vector_model_call_for_call(history):
    size, steps, order = history
    sent = play(size, steps)
    # A member that only listens, shown everything in an arbitrary order.
    observer = LockstepMember("observer")
    released = []
    for index in order:
        released.extend(observer.receive(*sent[index]))
    assert len(released) == len(sent)
    assert observer.buffer.held_count == 0


@given(causal_history())
def test_causal_property_all_delivered_respecting_causality(history):
    """Causal delivery is complete and never inverts happened-before."""
    size, steps, order = history
    messages = [message for message, _ in play(size, steps)]
    buffer = CausalDelivery("observer")
    delivered = []
    for index in order:
        delivered.extend(buffer.on_receive(messages[index]))
    assert len(delivered) == len(messages)
    # No message is delivered before one it causally depends on.
    for i, later in enumerate(delivered):
        for earlier in delivered[i + 1:]:
            assert not VectorClock(earlier.vector).happened_before(
                VectorClock(later.vector)) or earlier is later


def test_causal_drops_duplicate_and_stale_stamps():
    """Like the FIFO and total buffers: never held, never redelivered."""
    buffer = CausalDelivery("c")
    first = msg("a", vector={"a": 1})
    second = msg("a", vector={"a": 2, "b": 1})
    assert buffer.on_receive(first) == [first]
    assert buffer.on_receive(first) == []
    assert buffer.on_receive(msg("a", vector={"a": 1})) == []
    assert buffer.held_count == 0
    # While something is held, too.
    assert buffer.on_receive(second) == []
    assert buffer.on_receive(first) == []
    assert buffer.held_count == 1
    from_b = msg("b", vector={"b": 1})
    assert buffer.on_receive(from_b) == [from_b, second]
    assert buffer.on_receive(second) == []
    assert buffer.held_count == 0


def test_causal_stamp_is_a_copy_that_leaves_the_counts_alone():
    buffer = CausalDelivery("a")
    from_b = msg("b", vector={"b": 1})
    buffer.on_receive(from_b)
    mine = msg("a")
    buffer.stamp(mine)
    assert mine.vector == {"a": 1, "b": 1}
    assert buffer.delivered == VectorClock({"b": 1})  # until loopback
    buffer.on_receive(msg("b", vector={"b": 2}))
    assert mine.vector == {"a": 1, "b": 1}  # later deliveries stay out
    assert buffer.on_receive(mine) == [mine]
    assert buffer.delivered == VectorClock({"a": 1, "b": 2})


def test_causal_group_on_a_jittery_wan_matches_the_model():
    """Eight endpoints; each one's log equals the model's, replayed from
    the arrival sequence the network actually produced."""
    import random

    from repro.groups import ProcessGroup
    from repro.net import Network, wan
    from repro.sim import Environment

    env = Environment()
    network = Network(env, wan(env, sites=4, hosts_per_site=2,
                               site_latency=0.01, jitter=0.02, seed=5))
    group = ProcessGroup(network, "g", ordering="causal")
    names = ["site{}.host{}".format(i, j) for i in range(4) for j in range(2)]
    arrivals = []

    def tap(endpoint):
        receive = endpoint._receive_message

        def record(message):
            arrivals.append((endpoint.name, message))
            receive(message)
        endpoint._receive_message = record

    def chatter(endpoint, rng):
        for index in range(40):
            yield env.timeout(rng.expovariate(1 / 0.02))
            endpoint.broadcast((endpoint.name, index), size=200)

    for index, name in enumerate(names):
        endpoint = group.join(name)
        tap(endpoint)
        env.process(chatter(endpoint, random.Random(index)))
    env.run()

    models = {name: ModelMember(name) for name in names}
    twin = {}  # real message's payload (unique) -> the model's own message
    held_back = 0
    for name, message in arrivals:
        if message.sender == name:
            twin[message.payload] = models[name].broadcast(message.payload)
        else:
            held_back += not models[name].receive(twin[message.payload])
    assert held_back > 100  # the jitter really made the buffers work
    for name in names:
        log = group.endpoint(name).delivered_log
        assert len(log) == 40 * len(names)
        assert stamps(log) == stamps(models[name].log)
