"""Tests for the graceful-degradation manager."""

import pytest

from repro.faults.degrade import DEGRADED, FULL_SERVICE, DegradationManager
from repro.net import Network, Topology, lan
from repro.qos.broker import QoSBroker
from repro.qos.params import QoSParameters
from repro.sessions.floor import FcfsFloor
from repro.sessions.session import ASYNCHRONOUS, SYNCHRONOUS, Session
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_flow(env, minimum=25000.0):
    net = Network(env, lan(env, hosts=2))
    broker = QoSBroker(net)
    contract = broker.negotiate(
        "host0", "host1",
        desired=QoSParameters(throughput=100000.0, latency=0.5,
                              jitter=0.5, loss=0.1),
        minimum=QoSParameters(throughput=minimum, latency=0.5,
                              jitter=0.5, loss=0.1))
    return broker, contract


def test_degrade_sheds_and_recover_restores(env):
    broker, contract = make_flow(env)
    manager = DegradationManager(env, broker=broker,
                                 contracts=[contract])
    assert manager.level == FULL_SERVICE
    assert manager.degrade("test")
    assert manager.level == DEGRADED
    assert contract.agreed.throughput == 50000.0
    assert manager.recover("test")
    assert manager.level == FULL_SERVICE
    assert contract.agreed.throughput == 100000.0


def test_shed_respects_contract_minimum(env):
    broker, contract = make_flow(env, minimum=60000.0)
    manager = DegradationManager(env, broker=broker,
                                 contracts=[contract])
    manager.degrade("one")
    # Half of 100k would undercut the 60k minimum: clamp to the minimum.
    assert contract.agreed.throughput == 60000.0


def test_transitions_are_idempotent(env):
    manager = DegradationManager(env)
    assert manager.degrade("a")
    assert not manager.degrade("b")
    assert manager.recover("a")
    assert not manager.recover("a")
    events = [entry["event"] for entry in manager.log]
    assert events == ["degrade", "degrade-again", "recover"]


def make_session(env, *args, **kwargs):
    return Session(Network(env, lan(env, hosts=2)), *args, **kwargs)


def floored_session(env):
    """A session of alice and bob whose FCFS floor lives at bob's host."""
    topology = Topology(env)
    for member in ("alice", "bob"):
        topology.add_link(member, "switch")
    network = Network(env, topology)
    session = Session(network, "s", floor=FcfsFloor(network, "bob"))
    for member in ("alice", "bob"):
        session.join(member)
    return session


def test_session_drops_to_async_and_returns(env):
    session = make_session(env, "s")
    manager = DegradationManager(env, session=session)
    assert session.time_mode == SYNCHRONOUS
    manager.degrade("slo:test")
    assert session.time_mode == ASYNCHRONOUS
    manager.recover("slo:test")
    assert session.time_mode == SYNCHRONOUS


def test_already_async_session_stays_async(env):
    session = make_session(env, "s", time_mode=ASYNCHRONOUS)
    manager = DegradationManager(env, session=session)
    manager.degrade("x")
    manager.recover("x")
    assert session.time_mode == ASYNCHRONOUS


def test_suspected_member_loses_floor(env):
    session = floored_session(env)

    def grab(env):
        yield session.floor.request("alice")

    env.run(env.process(grab(env)))
    assert session.floor.holds("alice")
    manager = DegradationManager(env, session=session)
    manager.on_suspect("alice")
    assert not session.floor.holds("alice")
    assert session.counters.as_dict()["floor_reclaims"] == 1
    assert manager.level == DEGRADED
    entry = manager.log[0]
    assert entry["event"] == "suspect"
    assert entry["floor_reclaimed"] is True


def test_suspecting_non_holder_still_degrades(env):
    session = floored_session(env)
    manager = DegradationManager(env, session=session)
    manager.on_suspect("alice")
    assert manager.level == DEGRADED
    assert manager.log[0]["floor_reclaimed"] is False


def test_slo_alert_callback_shape(env):
    class Alert:
        slo = "qos:flow"

    manager = DegradationManager(env)
    manager.on_alert("fired", Alert())
    assert manager.level == DEGRADED
    manager.on_alert("cleared", Alert())
    assert manager.level == FULL_SERVICE


def test_degradation_metrics(env):
    metrics = env.metrics
    manager = DegradationManager(env)
    manager.degrade("r")
    manager.recover("r")
    manager.on_suspect("m")
    assert metrics.counter_total("degrade.entered") == 2
    assert metrics.counter_total("degrade.recovered") == 1
    assert metrics.counter_total("degrade.suspicions") == 1


def test_watch_adds_contract(env):
    broker, contract = make_flow(env)
    manager = DegradationManager(env, broker=broker)
    manager.watch(contract)
    manager.degrade("x")
    assert contract.agreed.throughput == 50000.0
