"""Tests for QoS monitor observations landing in the metrics registry."""

from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.qos import QoSContract, QoSMonitor, QoSParameters
from repro.sim import Environment


def contract(latency=float("inf")):
    level = QoSParameters(throughput=0.0, latency=latency)
    return QoSContract("qos-1", "src-node", "dst-node", agreed=level,
                       desired=level, minimum=level)


def test_healthy_windows_count_and_record_distributions():
    registry = MetricsRegistry()
    with use_metrics(registry):
        env = Environment()
        monitor = QoSMonitor(env, contract(), window=1.0)

        def feed(env):
            # Frames land in the first two windows; the third is empty.
            yield env.timeout(0.5)
            monitor.record_frame(env.now - 0.01, env.now, size=100)
            yield env.timeout(0.7)
            monitor.record_frame(env.now - 0.01, env.now, size=100)

        env.process(feed(env))
        env.run(until=3.5)

    counters = registry.counters("qos.windows_ok")
    assert counters == {"qos.windows_ok{flow=src-node->dst-node}": 3}
    assert registry.counters("qos.violations") == {}
    snapshot = registry.snapshot()
    latency = snapshot["histograms"]["qos.latency{flow=src-node->dst-node}"]
    # Only the two windows that saw frames record latency samples.
    assert latency["count"] == 2
    assert abs(latency["mean"] - 0.01) < 1e-9
    loss = snapshot["histograms"]["qos.loss{flow=src-node->dst-node}"]
    assert loss["count"] == 3  # every window, frames or not


def test_violating_window_counts_a_violation():
    registry = MetricsRegistry()
    with use_metrics(registry):
        env = Environment()
        monitor = QoSMonitor(env, contract(latency=0.001), window=1.0)

        def feed(env):
            yield env.timeout(0.5)
            monitor.record_frame(env.now - 0.5, env.now, size=100)

        env.process(feed(env))
        env.run(until=2.0)

    assert registry.counters("qos.violations") == {
        "qos.violations{flow=src-node->dst-node}": 1}


def test_empty_windows_do_not_poison_latency_histogram():
    registry = MetricsRegistry()
    with use_metrics(registry):
        env = Environment()
        QoSMonitor(env, contract(), window=1.0)
        env.run(until=3.5)

    snapshot = registry.snapshot()
    assert "qos.latency{flow=src-node->dst-node}" \
        not in snapshot["histograms"]
    loss = snapshot["histograms"]["qos.loss{flow=src-node->dst-node}"]
    assert loss["count"] == 3
