"""SLO burn-rate evaluation: objectives, windows, alert lifecycle."""

import pytest

from repro.errors import QoSError
from repro.obs import slo
from repro.obs.metrics import MetricsRegistry
from repro.qos import QoSBroker, QoSMonitor, QoSParameters
from repro.sim import Environment

WINDOWS = ((10.0, 2.0, 4.0, "page"),)


def drive(env, registry, schedule):
    """A process recording good/bad counts per simulated second.

    ``schedule`` maps an inclusive time range to (good, bad) increments
    applied each second inside it.
    """
    def proc(env):
        while True:
            yield env.timeout(1.0)
            for (start, end), (good, bad) in schedule.items():
                if start <= env.now <= end:
                    if good:
                        registry.counter("svc", outcome="ok").add(good)
                    if bad:
                        registry.counter("svc", outcome="err").add(bad)

    env.process(proc(env))


def availability(target=0.9):
    return slo.CounterRatioSLO(
        "svc-availability",
        good=("svc", {"outcome": "ok"}),
        bad=("svc", {"outcome": "err"}),
        target=target)


class TestObjectives:

    def test_counter_ratio_totals_sum_matching_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("svc", outcome="ok", node="a").add(3)
        registry.counter("svc", outcome="ok", node="b").add(2)
        registry.counter("svc", outcome="err", node="a").add(1)
        good, bad = availability().totals(registry)
        assert (good, bad) == (5.0, 1.0)

    def test_target_must_be_a_fraction(self):
        with pytest.raises(QoSError):
            slo.CounterRatioSLO("x", "g", "b", target=1.0)
        with pytest.raises(QoSError):
            slo.CounterRatioSLO("x", "g", "b", target=0.0)

    def test_error_budget(self):
        assert availability(target=0.9).error_budget == pytest.approx(0.1)


class TestBurnRateAlerts:

    def run_monitor(self, schedule, until=60.0):
        env = Environment()
        registry = env.metrics
        drive(env, registry, schedule)
        monitor = slo.SLOMonitor(env, [availability()], windows=WINDOWS,
                                 until=until)
        env.run(until=until + 1.0)
        return monitor

    def test_healthy_service_never_fires(self):
        monitor = self.run_monitor({(0.0, 60.0): (20, 0)})
        assert monitor.events == []
        assert monitor.active_alerts() == []

    def test_degradation_fires_then_recovery_clears(self):
        monitor = self.run_monitor({
            (0.0, 20.0): (20, 0),
            (21.0, 35.0): (10, 10),     # 50% errors: burn 5 >> factor 4
            (36.0, 60.0): (20, 0),
        })
        kinds = [event["event"] for event in monitor.events]
        assert kinds == ["fired", "cleared"]
        fired, cleared = monitor.events
        assert 21.0 <= fired["at"] <= 35.0
        assert fired["burn_long"] >= 4.0 and fired["burn_short"] >= 4.0
        # The short window lets the alert clear soon after recovery.
        assert cleared["at"] <= 40.0
        assert monitor.active_alerts() == []
        alert = monitor.alerts[0]
        assert not alert.active
        assert alert.peak_burn >= 4.0

    def test_short_blip_does_not_fire(self):
        # One bad second inside a healthy run: the long window never
        # accumulates enough burn, so no page.
        monitor = self.run_monitor({
            (0.0, 60.0): (20, 0),
            (30.0, 30.0): (0, 10),
        })
        assert monitor.events == []

    def test_alert_counters_and_gauges_recorded(self):
        env = Environment()
        registry = env.metrics
        drive(env, registry, {(0.0, 10.0): (0, 10),
                              (11.0, 40.0): (20, 0)})
        monitor = slo.SLOMonitor(env, [availability()], windows=WINDOWS,
                                 until=40.0)
        env.run(until=41.0)
        counters = registry.counters()
        assert counters[
            "slo.alerts_fired{severity=page,slo=svc-availability}"] == 1
        assert counters[
            "slo.alerts_cleared{severity=page,slo=svc-availability}"] == 1
        gauge = registry.gauge("slo.burn_rate", slo="svc-availability",
                               window="10s")
        assert gauge.samples
        assert monitor.summary()["fired"] == 1

    def test_stop_lets_open_ended_run_drain(self):
        env = Environment()
        monitor = slo.SLOMonitor(env, [availability()], windows=WINDOWS)

        def stopper(env):
            yield env.timeout(5.0)
            monitor.stop()

        env.process(stopper(env))
        env.run()     # terminates only because stop() interrupts
        assert env.now == pytest.approx(5.0)

    def test_monitor_validates_configuration(self):
        env = Environment()
        with pytest.raises(QoSError):
            slo.SLOMonitor(env, [availability()],
                           windows=((1.0, 5.0, 4.0, "page"),))
        with pytest.raises(QoSError):
            slo.SLOMonitor(env, [availability(), availability()])


class TestQoSIntegration:

    def test_qos_slo_burns_on_contract_violations(self):
        env = Environment()
        from repro.net import Network, dumbbell
        topo = dumbbell(env, left=1, right=1,
                        bottleneck_bandwidth=1e6,
                        bottleneck_latency=0.01)
        network = Network(env, topo)
        broker = QoSBroker(network)
        desired = QoSParameters(throughput=8e5, latency=0.05,
                                jitter=0.05, loss=0.05)
        contract = broker.negotiate("left0", "right0", desired)
        monitor = QoSMonitor(env, contract, window=1.0,
                             expected_frames_per_window=10)
        objective = slo.qos_slo("left0->right0", target=0.5)
        slo_monitor = slo.SLOMonitor(
            env, [objective], windows=((4.0, 1.0, 1.5, "page"),),
            until=10.0)
        # No frames are ever delivered: every window violates.
        env.run(until=10.0)
        contract.close()
        assert monitor.counters["violations"] > 0
        assert monitor.counters["windows_ok"] == 0
        assert any(e["event"] == "fired" for e in slo_monitor.events)
