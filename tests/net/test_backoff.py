"""Tests for ReliableChannel retry backoff and its counters."""

import pytest

from repro.errors import TransportError
from repro.faults.policies import RetryPolicy, fixed_retry
from repro.net import Network, ReliableChannel, Topology
from repro.sim import Environment, RandomStreams

from tests.counting import CountingEnvironment


@pytest.fixture
def env():
    return Environment()


def make_pair(env, **kwargs):
    topo = Topology(env)
    link = topo.add_link("a", "b", latency=0.001,
                         rng=RandomStreams(3).stream("link"))
    net = Network(env, topo)
    sender = ReliableChannel(net.host("a"), **kwargs)
    ReliableChannel(net.host("b"), port=kwargs.get("port", 1))
    return sender, link


def give_up_time(env, sender, link):
    """Drive one send into the void; returns the failure time."""
    link.set_up(False)
    failed_at = []

    def root(env):
        try:
            yield sender.send("b", payload="x")
        except TransportError:
            failed_at.append(env.now)

    env.run(env.process(root(env)))
    assert failed_at
    return failed_at[0]


def test_default_matches_legacy_fixed_interval(env):
    # No backoff argument: timing identical to the historical fixed
    # ack_timeout retransmission loop.
    sender, link = make_pair(env, ack_timeout=0.1, max_retries=3)
    # 4 attempts, each waiting exactly ack_timeout.
    assert give_up_time(env, sender, link) == pytest.approx(0.4)


def test_explicit_fixed_retry_identical_to_default(env):
    sender, link = make_pair(env, ack_timeout=0.1, max_retries=3,
                             backoff=fixed_retry(0.1, 3))
    assert give_up_time(env, sender, link) == pytest.approx(0.4)


def test_exponential_backoff_changes_timing(env):
    sender, link = make_pair(
        env, backoff=RetryPolicy(base=0.1, multiplier=2.0,
                                 max_retries=3))
    # Waits 0.1 + 0.2 + 0.4 + 0.8 before giving up.
    assert give_up_time(env, sender, link) == pytest.approx(1.5)
    assert sender.max_retries == 3


def test_backoff_policy_overrides_max_retries(env):
    sender, _ = make_pair(env, max_retries=9,
                          backoff=fixed_retry(0.1, 2))
    assert sender.max_retries == 2


def test_retry_and_gave_up_counters(env):
    metrics = env.metrics
    sender, link = make_pair(env, ack_timeout=0.05, max_retries=2)
    give_up_time(env, sender, link)
    assert sender.retransmissions == 2
    assert sender.gave_up == 1
    assert metrics.counter_total("chan.retries") == 2
    assert metrics.counter_total("chan.gave_up") == 1
    # Labels carry the sending node and destination.
    assert metrics.counters("chan.retries") \
        == {"chan.retries{dst=b,node=a}": 2}


def test_no_counters_on_clean_delivery(env):
    metrics = env.metrics
    sender, _ = make_pair(env)

    def root(env):
        yield sender.send("b", payload="ok")

    env.run(env.process(root(env)))
    assert sender.retransmissions == 0
    assert sender.gave_up == 0
    assert metrics.counter_total("chan.retries") == 0
    assert metrics.counter_total("chan.gave_up") == 0


def test_jittered_backoff_is_seed_deterministic():
    def failure_time(seed):
        env = Environment()
        topo = Topology(env)
        link = topo.add_link("a", "b", latency=0.001,
                             rng=RandomStreams(3).stream("link"))
        net = Network(env, topo)
        sender = ReliableChannel(
            net.host("a"),
            backoff=RetryPolicy(base=0.1, multiplier=2.0, jitter=0.3,
                                max_retries=2,
                                rng=RandomStreams(seed).stream("bk")))
        ReliableChannel(net.host("b"))
        return give_up_time(env, sender, link)

    assert failure_time(5) == failure_time(5)
    assert failure_time(5) != failure_time(6)


# -- a send is a callback object, not a process ---------------------------

def test_a_reliable_send_starts_no_process():
    """The send is advanced by its ack and its attempt timers alone: no
    process, and the ack is handed to the waiting callback in its
    delivery."""
    env = CountingEnvironment()
    sender, _ = make_pair(env)
    acked = []
    done = sender.send("b", payload="x")
    done.callbacks.append(lambda event: acked.append((event.value,
                                                      env.now)))
    env.run()
    assert env.processes == 0
    assert len(acked) == 1 and acked[0][0] == 1 and 0 < acked[0][1] < 0.2
    assert done.processed and sender.inflight() == 0
    assert sender.retransmissions == 0 and not sender._pending_acks


def test_a_lost_ack_retransmits_on_the_same_backoff_draws():
    """Two acks are lost: the data goes out three times, each retry
    after the policy's next jittered draw, and the third ack resolves
    the send.  The draws are the ones a fresh stream of the same seed
    gives, one per attempt, in attempt order."""
    env = CountingEnvironment()
    topo = Topology(env)
    topo.add_link("a", "b", latency=0.001)
    net = Network(env, topo)
    a, b = net.host("a"), net.host("b")
    sender = ReliableChannel(
        a, backoff=RetryPolicy(base=0.1, multiplier=2.0, jitter=0.3,
                               max_retries=4,
                               rng=RandomStreams(9).stream("bk")))
    ReliableChannel(b)
    sent, lost = [], []
    send_a, send_b = a.send, b.send

    def data_sent(dst, **kwargs):
        sent.append(env.now)
        send_a(dst, **kwargs)

    def ack_sent(dst, **kwargs):
        if len(lost) < 2:
            lost.append(env.now)        # this ack never leaves b
            return
        send_b(dst, **kwargs)

    a.send, b.send = data_sent, ack_sent
    done = sender.send("b", payload="x")
    env.run()
    draws = RandomStreams(9).stream("bk")
    expected = RetryPolicy(base=0.1, multiplier=2.0, jitter=0.3,
                           max_retries=4, rng=draws)
    first, second = expected.delay(0), expected.delay(1)
    assert sent == pytest.approx([0.0, first, first + second])
    assert done.value == 1 and sender.retransmissions == 2
    assert sender.gave_up == 0 and sender.inflight() == 0
    assert env.processes == 0
