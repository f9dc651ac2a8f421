"""Tests for QoS parameters, the broker and monitoring."""

import pytest

from repro.errors import QoSError, QoSNegotiationFailed
from repro.net import Network, Topology, dumbbell
from repro.qos import (
    ACTIVE,
    CLOSED,
    DEGRADED,
    QoSBroker,
    QoSContract,
    QoSMonitor,
    QoSParameters,
    VIOLATED,
)
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


# -- parameters -----------------------------------------------------------------

def test_parameters_validation():
    with pytest.raises(QoSError):
        QoSParameters(throughput=-1)
    with pytest.raises(QoSError):
        QoSParameters(latency=-1)
    with pytest.raises(QoSError):
        QoSParameters(jitter=-1)
    with pytest.raises(QoSError):
        QoSParameters(loss=2.0)


def test_satisfies_partial_order():
    good = QoSParameters(throughput=2e6, latency=0.01, jitter=0.001,
                         loss=0.001)
    weak = QoSParameters(throughput=1e6, latency=0.05, jitter=0.01,
                         loss=0.01)
    assert good.satisfies(weak)
    assert not weak.satisfies(good)


def test_scaled_degrades_throughput():
    params = QoSParameters(throughput=1e6, latency=0.05)
    half = params.scaled(0.5)
    assert half.throughput == 5e5
    assert half.latency == 0.05
    with pytest.raises(QoSError):
        params.scaled(0)
    with pytest.raises(QoSError):
        params.scaled(1.5)


def test_parameters_equality():
    assert QoSParameters(1e6, 0.1) == QoSParameters(1e6, 0.1)
    assert QoSParameters(1e6) != QoSParameters(2e6)
    assert QoSParameters() != "not-params"


def test_contract_lifecycle():
    desired = QoSParameters(throughput=1e6, latency=0.1)
    minimum = QoSParameters(throughput=2e5, latency=0.1)
    contract = QoSContract("qos-1", "a", "b", desired, desired, minimum)
    assert contract.state == ACTIVE
    assert contract.is_active
    contract.mark_violated()
    assert contract.state == VIOLATED
    contract.renegotiate(QoSParameters(throughput=5e5, latency=0.1))
    assert contract.state == DEGRADED
    assert contract.renegotiations == 1
    contract.close()
    assert contract.state == CLOSED
    with pytest.raises(QoSError):
        contract.renegotiate(desired)


def test_contract_renegotiation_floor():
    desired = QoSParameters(throughput=1e6, latency=0.1)
    minimum = QoSParameters(throughput=5e5, latency=0.1)
    contract = QoSContract("qos-1", "a", "b", desired, desired, minimum)
    with pytest.raises(QoSError):
        contract.renegotiate(QoSParameters(throughput=1e5, latency=0.1))


# -- broker ---------------------------------------------------------------------

def make_broker(env):
    topo = dumbbell(env, left=2, right=2, bottleneck_bandwidth=1e6)
    net = Network(env, topo)
    return QoSBroker(net), net


def test_broker_admits_within_capacity(env):
    broker, _ = make_broker(env)
    contract = broker.negotiate(
        "left0", "right0",
        QoSParameters(throughput=5e5, latency=0.1))
    assert contract.agreed.throughput == 5e5
    assert broker.counters["admitted"] == 1


def test_broker_grants_degraded_level(env):
    broker, _ = make_broker(env)
    # Bottleneck reservable capacity is 0.8 Mb/s; ask 2 Mb/s, accept 0.2.
    contract = broker.negotiate(
        "left0", "right0",
        QoSParameters(throughput=2e6, latency=0.1),
        minimum=QoSParameters(throughput=2e5, latency=0.1))
    assert contract.agreed.throughput == pytest.approx(8e5)
    assert broker.counters["admitted_degraded"] == 1


def test_broker_refuses_beyond_capacity(env):
    broker, _ = make_broker(env)
    broker.negotiate("left0", "right0",
                     QoSParameters(throughput=7e5, latency=0.1))
    with pytest.raises(QoSNegotiationFailed):
        broker.negotiate("left1", "right1",
                         QoSParameters(throughput=5e5, latency=0.1))
    assert broker.counters["refused:capacity"] == 1


def test_broker_refuses_impossible_latency(env):
    broker, _ = make_broker(env)
    with pytest.raises(QoSNegotiationFailed):
        broker.negotiate("left0", "right0",
                         QoSParameters(throughput=1e5, latency=0.001))
    assert broker.counters["refused:latency"] == 1


def test_broker_release_returns_capacity(env):
    broker, _ = make_broker(env)
    contract = broker.negotiate(
        "left0", "right0", QoSParameters(throughput=7e5, latency=0.1))
    broker.release(contract)
    assert contract.state == CLOSED
    # Capacity came back: the second flow now fits.
    second = broker.negotiate(
        "left1", "right1", QoSParameters(throughput=7e5, latency=0.1))
    assert second.agreed.throughput == 7e5
    with pytest.raises(QoSError):
        broker.release(contract)  # already gone


def test_broker_renegotiate_down_frees_capacity(env):
    broker, _ = make_broker(env)
    contract = broker.negotiate(
        "left0", "right0",
        QoSParameters(throughput=7e5, latency=0.1),
        minimum=QoSParameters(throughput=1e5, latency=0.1))
    broker.renegotiate(contract, 3e5)
    assert contract.agreed.throughput == 3e5
    # Freed capacity admits a second flow.
    second = broker.negotiate(
        "left1", "right1", QoSParameters(throughput=5e5, latency=0.1))
    assert second.agreed.throughput == 5e5


def test_broker_renegotiate_up_needs_capacity(env):
    broker, _ = make_broker(env)
    first = broker.negotiate(
        "left0", "right0",
        QoSParameters(throughput=4e5, latency=0.1),
        minimum=QoSParameters(throughput=1e5, latency=0.1))
    broker.negotiate("left1", "right1",
                     QoSParameters(throughput=4e5, latency=0.1))
    with pytest.raises(QoSNegotiationFailed):
        broker.renegotiate(first, 8e5)


def test_broker_validation(env):
    topo = Topology(env)
    topo.add_link("a", "b")
    net = Network(env, topo)
    broker = QoSBroker(net)
    with pytest.raises(QoSError):
        broker.negotiate("a", "b", QoSParameters(throughput=1e5),
                         minimum=QoSParameters(throughput=2e5))
    ghost = QoSContract("qos-ghost", "a", "b", QoSParameters(),
                        QoSParameters(), QoSParameters())
    with pytest.raises(QoSError):
        broker.release(ghost)


# -- monitor -------------------------------------------------------------------

def make_contract():
    level = QoSParameters(throughput=8e5, latency=0.05, jitter=0.02,
                          loss=0.05)
    return QoSContract("qos-1", "a", "b", level, level, level)


def test_monitor_window_ok(env):
    contract = make_contract()
    monitor = QoSMonitor(env, contract, window=1.0,
                         expected_frames_per_window=25)

    def feeder(env):
        for i in range(25):
            yield env.timeout(0.04)
            sent = env.now - 0.01
            monitor.record_frame(sent, env.now, 4000)

    env.process(feeder(env))
    env.run(until=1.5)
    assert monitor.counters["windows_ok"] >= 1
    assert monitor.counters["violations"] == 0
    assert contract.state == ACTIVE


def test_monitor_detects_starvation(env):
    contract = make_contract()
    monitor = QoSMonitor(env, contract, window=1.0,
                         expected_frames_per_window=25)
    env.run(until=1.5)  # no frames at all
    assert monitor.counters["violations"] == 1
    assert monitor.observations[0].frames == 0
    assert contract.state == VIOLATED


def test_monitor_detects_latency_violation(env):
    contract = make_contract()
    monitor = QoSMonitor(env, contract, window=1.0,
                         expected_frames_per_window=25)

    def feeder(env):
        for i in range(25):
            yield env.timeout(0.04)
            monitor.record_frame(env.now - 0.5, env.now, 4000)  # 500ms!

    env.process(feeder(env))
    env.run(until=1.5)
    assert monitor.counters["violations"] >= 1


def test_monitor_stops_when_contract_closed(env):
    contract = make_contract()
    monitor = QoSMonitor(env, contract, window=1.0)
    contract.close()
    env.run(until=5.0)
    # One window at most was evaluated after closing.
    assert len(monitor.observations) <= 1


def test_monitor_validation(env):
    contract = make_contract()
    with pytest.raises(QoSError):
        QoSMonitor(env, contract, window=0)
    monitor = QoSMonitor(env, contract, window=1.0)
    with pytest.raises(QoSError):
        monitor.record_frame(5.0, 1.0, 100)


def test_observation_meets_accounts_for_slack():
    from repro.qos import QoSObservation

    agreed = QoSParameters(throughput=1e6, latency=0.1, jitter=0.05,
                           loss=0.1)
    observation = QoSObservation(0, 1, 0.95e6, 0.05, 0.01, 0.0, 25)
    assert observation.meets(agreed)
    starved = QoSObservation(0, 1, 0.5e6, 0.05, 0.01, 0.0, 25)
    assert not starved.meets(agreed)
