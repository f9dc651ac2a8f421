"""Tests for the five floor-control policies.

Every floor lives at the ``chair`` host of a hub whose links each take
``HOP`` seconds, so a member's request reaches it ``2 * HOP`` after the
ask and a grant is back ``RTT`` after it (to within the headers'
microseconds of transmission).
"""

import pytest

from repro.errors import FloorControlError, TransportError
from repro.faults import FaultInjector, FaultSchedule
from repro.net import Network, Topology, wan
from repro.sessions import (
    ChairedFloor,
    FcfsFloor,
    FLOOR_POLICIES,
    FreeFloor,
    NegotiatedFloor,
    RoundRobinFloor,
)
from repro.sessions.floor import CHAIR_DECISION_LATENCY
from repro.sim import Environment

HOP = 0.01
ONE_WAY = 2 * HOP
RTT = 2 * ONE_WAY


def at(seconds):
    return pytest.approx(seconds, abs=1e-4)


def floor_on(policy, *members, **options):
    """``policy`` at ``chair``, with ``members`` on its hub."""
    env = Environment()
    topology = Topology(env)
    for node in ("chair",) + members:
        topology.add_link(node, "hub", latency=HOP)
    return policy(Network(env, topology), "chair", **options)


def test_policy_registry():
    assert set(FLOOR_POLICIES) == {"free", "fcfs", "round-robin",
                                   "chaired", "negotiated"}


def test_free_floor_grants_instantly_and_counts_collisions():
    floor = floor_on(FreeFloor, "alice", "bob")
    env = floor.env

    def speaker(env, name, hold):
        yield floor.request(name)
        yield env.timeout(hold)
        floor.release(name)

    env.process(speaker(env, "alice", 2.0))
    env.process(speaker(env, "bob", 2.0))
    env.run()
    assert floor.counters["grants"] == 2
    assert floor.counters["collisions"] == 1
    # Granted on arrival: the wait is the request's and grant's trip.
    assert floor.wait_time.maximum == at(RTT)


def test_free_floor_release_requires_speaker():
    floor = floor_on(FreeFloor, "nobody")
    with pytest.raises(FloorControlError):
        floor.release("nobody")


def test_fcfs_orders_by_arrival():
    floor = floor_on(FcfsFloor, "alice", "bob", "carol")
    env = floor.env
    order = []

    def speaker(env, name, delay, hold):
        yield env.timeout(delay)
        yield floor.request(name)
        order.append((name, env.now))
        yield env.timeout(hold)
        floor.release(name)

    env.process(speaker(env, "alice", 0.0, 3.0))
    env.process(speaker(env, "bob", 1.0, 1.0))
    env.process(speaker(env, "carol", 0.5, 1.0))
    env.run()
    # Each hand-off waits for the release to reach the chair and the
    # grant to come back.
    assert order == [("alice", at(RTT)), ("carol", at(3.0 + 2 * RTT)),
                     ("bob", at(4.0 + 3 * RTT))]
    assert floor.wait_time.count == 3


def test_fcfs_grants_same_instant_requests_in_arrival_order():
    """Asked at one instant, the requests reach the chair in the order
    they were sent, and each waits for the turns before it."""
    floor = floor_on(FcfsFloor, "alice", "bob", "carol")
    env = floor.env
    order = []

    def speaker(env, name, hold):
        yield floor.request(name)
        order.append((name, env.now))
        assert [member for member in ("alice", "bob", "carol")
                if floor.holds(member)] == [name]
        yield env.timeout(hold)
        floor.release(name)

    env.process(speaker(env, "alice", 2.0))
    env.process(speaker(env, "bob", 1.0))
    env.process(speaker(env, "carol", 1.0))
    env.run()
    assert order == [("alice", at(RTT)), ("bob", at(2.0 + 2 * RTT)),
                     ("carol", at(3.0 + 3 * RTT))]
    assert floor.holder is None


def test_fcfs_release_requires_holder():
    floor = floor_on(FcfsFloor, "alice", "bob")
    floor.request("alice")
    with pytest.raises(FloorControlError):
        floor.release("bob")
    # Not before the grant has arrived, either.
    with pytest.raises(FloorControlError):
        floor.release("alice")
    floor.env.run()
    floor.release("alice")
    with pytest.raises(FloorControlError):
        floor.release("alice")


def test_a_release_ends_the_turn_when_it_reaches_the_chair():
    floor = floor_on(FcfsFloor, "alice")
    env = floor.env
    seen = []

    def speaker(env):
        yield floor.request("alice")
        floor.release("alice")
        seen.append(floor.holds("alice"))
        yield env.timeout(ONE_WAY + 1e-3)
        seen.append(floor.holds("alice"))

    env.process(speaker(env))
    env.run()
    assert seen == [True, False]
    assert floor.hold_time.values == [at(ONE_WAY + ONE_WAY)]


def test_round_robin_preempts_hog():
    floor = floor_on(RoundRobinFloor, "hog", "waiter", quantum=2.0)
    env = floor.env
    preempted = []
    floor.on_preempt = preempted.append
    got_floor = []

    def hog(env):
        yield floor.request("hog")
        got_floor.append(("hog", env.now))
        # never releases

    def waiter(env):
        yield env.timeout(0.5)
        yield floor.request("waiter")
        got_floor.append(("waiter", env.now))
        floor.release("waiter")

    env.process(hog(env))
    env.process(waiter(env))
    env.run()
    # The quantum runs at the chair, from the hog's grant there.
    assert got_floor == [("hog", at(RTT)), ("waiter", at(2.0 + RTT))]
    assert preempted == ["hog"]
    assert floor.counters["preemptions"] == 1


def test_round_robin_no_preemption_without_waiters():
    floor = floor_on(RoundRobinFloor, "alice", quantum=1.0)
    env = floor.env

    def holder(env):
        yield floor.request("alice")
        yield env.timeout(5.0)
        floor.release("alice")

    env.process(holder(env))
    env.run()
    assert floor.counters["preemptions"] == 0


def test_round_robin_quantum_validation():
    with pytest.raises(FloorControlError):
        floor_on(RoundRobinFloor, quantum=0)


def test_chaired_floor_grants_after_decision_latency():
    floor = floor_on(ChairedFloor, "alice")
    env = floor.env
    granted = []

    def speaker(env):
        yield floor.request("alice")
        granted.append(env.now)

    env.process(speaker(env))
    env.run()
    assert granted == [at(CHAIR_DECISION_LATENCY + RTT)]


def test_chaired_floor_queues_while_held():
    floor = floor_on(ChairedFloor, "alice", "bob")
    env = floor.env
    order = []

    def speaker(env, name, hold):
        yield floor.request(name)
        order.append((name, env.now))
        yield env.timeout(hold)
        floor.release(name)

    env.process(speaker(env, "alice", 2.0))
    env.process(speaker(env, "bob", 1.0))
    env.run()
    first = CHAIR_DECISION_LATENCY + RTT
    assert order == [("alice", at(first)), ("bob", at(first + 2.0 + RTT))]


def test_negotiated_floor_holder_yields():
    floor = floor_on(NegotiatedFloor, "alice", "bob",
                     negotiation_latency=0.5)
    env = floor.env
    timeline = []

    def first(env):
        yield floor.request("alice")
        timeline.append(("alice", env.now))
        # alice never explicitly releases; she yields when asked.

    def second(env):
        yield env.timeout(1.0)
        yield floor.request("bob")
        timeline.append(("bob", env.now))

    env.process(first(env))
    env.process(second(env))
    env.run()
    assert timeline == [("alice", at(RTT)), ("bob", at(1.5 + RTT))]
    assert floor.counters["yields"] == 1


def test_negotiated_floor_refusal_waits_for_release():
    floor = floor_on(NegotiatedFloor, "alice", "bob",
                     yields=lambda holder, requester: False,
                     negotiation_latency=0.5)
    env = floor.env
    timeline = []

    def first(env):
        yield floor.request("alice")
        yield env.timeout(5.0)
        floor.release("alice")

    def second(env):
        yield env.timeout(1.0)
        yield floor.request("bob")
        timeline.append(env.now)

    env.process(first(env))
    env.process(second(env))
    env.run()
    assert timeline == [at(5.0 + 2 * RTT)]
    assert floor.counters["refusals"] == 1


def test_turn_counts_fairness_metric():
    floor = floor_on(FcfsFloor, "alice", "bob")
    env = floor.env

    def speaker(env, name, turns):
        for _ in range(turns):
            yield floor.request(name)
            yield env.timeout(0.1)
            floor.release(name)

    env.process(speaker(env, "alice", 3))
    env.process(speaker(env, "bob", 1))
    env.run()
    counts = floor.turn_counts()
    assert counts == {"alice": 3, "bob": 1}


def test_a_floors_traffic_is_its_messages_and_their_acks():
    """With nothing lost, every packet is a request, a grant or a
    release, or its ack; the last speaker still holds at the end."""
    floor = floor_on(FcfsFloor, "alice", "bob", "carol")
    env = floor.env

    def speaker(env, name, turns):
        for number in range(turns):
            yield floor.request(name)
            yield env.timeout(0.5)
            if name != "carol" or number < turns - 1:
                floor.release(name)

    for name in ("alice", "bob", "carol"):
        env.process(speaker(env, name, 2))
    env.run()
    counters = floor.counters
    assert (counters["requests"], counters["grants"],
            counters["releases"]) == (6, 6, 5)
    assert floor.network.counters["sent"] == 2 * (6 + 6 + 5)
    assert floor.holds("carol")


def test_floor_latency_validation():
    with pytest.raises(FloorControlError):
        floor_on(NegotiatedFloor, negotiation_latency=-1)


# -- cut off from the floor's host ----------------------------------------------


def two_sites(policy=FcfsFloor, cut_at=1.0, heal_at=None):
    """``policy`` at ``site0.host0`` of a two-site WAN cut in two at
    ``cut_at`` (and mended at ``heal_at``)."""
    env = Environment()
    topology = wan(env, sites=2, hosts_per_site=2)
    network = Network(env, topology)
    floor = policy(network, "site0.host0")
    sites = [[node for node in topology.nodes if node.startswith(site)]
             for site in ("site0.", "site1.")]
    FaultInjector(env, network, FaultSchedule().partition(
        cut_at, sites, heal_at=heal_at))
    return floor


def test_a_member_cut_off_from_the_floor_host_is_refused_with_the_transport_error():
    floor = two_sites()
    env = floor.env
    outcome = []

    def member(env):
        yield env.timeout(2.0)
        try:
            yield floor.request("site1.host0")
        except TransportError as error:
            outcome.append((env.now, str(error)))

    proc = env.process(member(env))
    env.run()
    # Every attempt of the request is dropped at the cut; the last
    # attempt's ack wait ends the send, and the request with it.
    [(refused_at, message)] = outcome
    assert refused_at == pytest.approx(2.0 + 9 * 0.2)
    assert message == "no ack from site0.host0 after 9 attempts"
    assert not proc.is_alive
    assert floor.holder is None and floor.turns == []
    assert floor.network.drop_stats() == {"no-route": 9}


def test_a_grant_that_cannot_be_delivered_hands_the_floor_on():
    """The far member's request is queued before the cut; its grant,
    sent after, is refused, and the floor passes to the next in line."""
    floor = two_sites(cut_at=0.5)
    env = floor.env
    outcome = {}

    def holder(env):
        yield floor.request("site0.host1")
        yield env.timeout(1.0)
        floor.release("site0.host1")

    def far(env):
        yield env.timeout(0.1)
        try:
            yield floor.request("site1.host0")
        except TransportError:
            outcome["site1.host0"] = "refused"

    def near(env):
        yield env.timeout(0.2)
        yield floor.request("site0.host0")
        outcome["site0.host0"] = env.now
        floor.release("site0.host0")

    procs = [env.process(body(env)) for body in (holder, far, near)]
    env.run()
    assert outcome["site1.host0"] == "refused"
    assert [member for member, _ in floor.turns] == [
        "site0.host1", "site1.host0", "site0.host0"]
    assert outcome["site0.host0"] > 1.0 + 9 * 0.2
    assert not any(proc.is_alive for proc in procs)
    assert floor.holder is None


def test_a_grant_reaching_a_member_who_stopped_waiting_is_handed_back():
    """Bob's request reaches the chair, but his link goes down before
    its ack is back: his send gives up and his request fails.  The
    link is up again when the chair grants him, so his host hands the
    floor straight back and carol gets it."""
    floor = floor_on(FcfsFloor, "alice", "bob", "carol")
    env = floor.env
    FaultInjector(env, floor.network, FaultSchedule().partition(
        0.125, [["bob"], ["alice", "carol", "chair", "hub"]],
        heal_at=2.5))
    outcome = {}

    def alice(env):
        yield floor.request("alice")
        yield env.timeout(3.0)
        floor.release("alice")

    def bob(env):
        yield env.timeout(0.1)
        try:
            yield floor.request("bob")
        except TransportError:
            outcome["bob"] = env.now

    def carol(env):
        yield env.timeout(0.2)
        yield floor.request("carol")
        outcome["carol"] = env.now
        floor.release("carol")

    for body in (alice, bob, carol):
        env.process(body(env))
    env.run()
    assert outcome["bob"] == at(0.1 + 9 * 0.2)
    assert [member for member, _ in floor.turns] == ["alice", "bob", "carol"]
    # After alice's hold: her release, bob's grant, its hand-back and
    # carol's grant, one trip each.
    assert outcome["carol"] == at(RTT + 3.0 + 4 * ONE_WAY)
    assert floor.holder is None


def test_a_member_refused_across_a_cut_is_granted_when_it_asks_after_the_heal():
    """The refused request leaves no gap in the member's channel: its
    next request, sent after the heal, reaches the floor's host."""
    floor = two_sites(heal_at=4.0)
    env = floor.env
    outcome = []

    def member(env):
        yield env.timeout(2.0)
        try:
            yield floor.request("site1.host0")
        except TransportError:
            outcome.append(("refused", env.now))
        yield env.timeout(1.0)
        yield floor.request("site1.host0")
        outcome.append(("granted", env.now))
        floor.release("site1.host0")

    proc = env.process(member(env))
    env.run()
    assert outcome == [("refused", pytest.approx(3.8)),
                       ("granted", pytest.approx(
                           4.8 + 2 * (0.02 + 2 * 0.0002), abs=1e-4))]
    assert not proc.is_alive
    assert floor.holder is None and len(floor.turns) == 1


def test_a_release_sent_across_a_cut_is_sent_again_until_it_arrives():
    """The far holder releases while cut off.  Its release gives up and
    is sent again; the copy that gets through after the heal ends the
    turn, and the member queued behind it is granted."""
    floor = two_sites(heal_at=4.1)
    env = floor.env
    granted = []

    def far(env):
        yield floor.request("site1.host0")
        yield env.timeout(2.0)
        floor.release("site1.host0")

    def near(env):
        yield env.timeout(0.5)
        yield floor.request("site0.host1")
        granted.append(env.now)
        floor.release("site0.host1")

    procs = [env.process(body(env)) for body in (far, near)]
    env.run()
    # The release leaves at about 2.04, gives up at 3.84 and is sent
    # again; that send's attempt at 4.24 is the first after the heal.
    [at_] = granted
    assert 4.24 < at_ < 4.24 + 0.1
    assert floor.counters["releases"] == 3
    assert [member for member, _ in floor.turns] == [
        "site1.host0", "site0.host1"]
    assert not any(proc.is_alive for proc in procs)
    assert floor.holder is None


def test_a_grant_whose_acks_are_cut_ends_its_turn():
    """Alice's grant arrives, but the cut that follows it drops every
    ack, so the chair's send gives up and bob is granted.  Alice's late
    release names the turn that ended and leaves bob holding."""
    floor, _ = acks_cut(FcfsFloor)
    env = floor.env
    seen = {}

    def alice(env):
        seen["alice"] = yield floor.request("alice")
        yield env.timeout(2.5)
        floor.release("alice")
        yield env.timeout(0.5)
        seen["bob holds"] = floor.holds("bob")

    def bob(env):
        yield env.timeout(0.2)
        seen["bob"] = yield floor.request("bob")
        yield env.timeout(2.0)
        floor.release("bob")

    for body in (alice, bob):
        env.process(body(env))
    env.run()
    assert (seen["alice"], seen["bob"]) == (1, 2)
    assert seen["bob holds"]
    assert [member for member, _ in floor.turns] == ["alice", "bob"]
    assert floor.holder is None


def acks_cut(policy):
    """``policy`` at ``chair``: ``bob`` 20 ms away and ``alice`` 110 ms,
    her link cut from 0.2 s, while her first grant is on it, to 1.75 s
    (after the chair's last attempt of that grant, before her host's
    last of what she sent on it)."""
    env = Environment()
    topology = Topology(env)
    topology.add_link("chair", "hub", latency=HOP)
    topology.add_link("bob", "hub", latency=HOP)
    topology.add_link("alice", "hub", latency=0.1)
    network = Network(env, topology)
    FaultInjector(env, network, FaultSchedule().link_down(
        0.2, "alice", "hub", up_at=1.75))
    return policy(network, "chair"), network
