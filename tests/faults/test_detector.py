"""Tests for the phi-accrual failure detector."""

import pytest

from repro.faults.detector import PhiAccrualDetector, _phi
from repro.groups import MonitoredMembership, ProcessGroup
from repro.net import Network, lan
from repro.sim import Environment


def regular(detector, member="m", interval=1.0, beats=20):
    for i in range(beats):
        detector.observe(member, i * interval)
    return beats * interval


def test_phi_grows_with_silence():
    assert _phi(1.0, mean=1.0, std=0.1) < _phi(1.5, mean=1.0, std=0.1) \
        < _phi(2.0, mean=1.0, std=0.1)


def test_phi_at_mean_is_moderate():
    # Half the arrivals are later than the mean: phi ~ -log10(0.5).
    assert _phi(1.0, mean=1.0, std=0.1) == pytest.approx(0.301, abs=0.01)


def test_regular_heartbeats_not_suspected():
    detector = PhiAccrualDetector(threshold=8.0)
    detector.watch("m", 0.0)
    end = regular_end(1.0)  # last arrival
    regular(detector, interval=1.0)
    # Barely late: phi far below threshold.
    assert not detector.suspect("m", 1.1, end + 1.1)
    # Very late: suspicion.
    assert detector.suspect("m", 6.0, end + 6.0)


def test_adapts_to_observed_cadence():
    # A detector trained on slow heartbeats tolerates silences that
    # would damn a member on a fast cadence.
    fast = PhiAccrualDetector(threshold=8.0)
    slow = PhiAccrualDetector(threshold=8.0)
    fast.watch("m", 0.0)
    slow.watch("m", 0.0)
    regular(fast, interval=0.5)
    regular(slow, interval=2.0)
    silent = 3.0
    assert fast.phi("m", regular_end(0.5) + silent) \
        > slow.phi("m", regular_end(2.0) + silent)
    assert fast.suspect("m", silent, regular_end(0.5) + silent)
    assert not slow.suspect("m", silent, regular_end(2.0) + silent)


def regular_end(interval, beats=20):
    return (beats - 1) * interval


def test_jittery_cadence_is_more_tolerant():
    steady = PhiAccrualDetector(threshold=8.0)
    jittery = PhiAccrualDetector(threshold=8.0)
    steady.watch("m", 0.0)
    jittery.watch("m", 0.0)
    now = 0.0
    for i in range(20):
        steady.observe("m", float(i))
        now = i + (0.4 if i % 2 else 0.0)
        jittery.observe("m", now)
    # Same elapsed silence: the noisier history yields lower phi.
    assert jittery.phi("m", now + 3.0) < steady.phi("m", 19.0 + 3.0)


def test_bootstrap_cold_start():
    # Before min_samples intervals arrive, the detector falls back to
    # the bootstrap interval instead of trusting a degenerate fit.
    detector = PhiAccrualDetector(threshold=8.0, min_samples=3,
                                  bootstrap_interval=1.0)
    detector.watch("m", 0.0)
    assert detector.intervals_observed("m") == 0
    assert not detector.suspect("m", 1.0, 1.0)
    assert detector.suspect("m", 10.0, 10.0)


def test_rewatch_clears_history():
    detector = PhiAccrualDetector()
    detector.watch("m", 0.0)
    regular(detector)
    detector.watch("m", 100.0)
    assert detector.intervals_observed("m") == 0
    assert detector.phi("m", 100.0) == 0.0


def test_window_bounds_history():
    detector = PhiAccrualDetector(window=8)
    detector.watch("m", 0.0)
    regular(detector, beats=50)
    assert detector.intervals_observed("m") == 8


def test_validation():
    with pytest.raises(Exception):
        PhiAccrualDetector(threshold=0.0)
    with pytest.raises(Exception):
        PhiAccrualDetector(window=0)
    with pytest.raises(Exception):
        PhiAccrualDetector(bootstrap_interval=0.0)


def test_drives_view_change_as_membership_strategy():
    env = Environment()
    topo = lan(env, hosts=4)
    net = Network(env, topo)
    group = ProcessGroup(net, "g", ordering="fifo")
    for i in range(4):
        group.join("host{}".format(i))
    detector = PhiAccrualDetector(threshold=8.0, min_samples=3,
                                  bootstrap_interval=0.5)
    membership = MonitoredMembership(group, interval=0.5,
                                     strategy=detector)

    def crash_later(env):
        yield env.timeout(5.0)
        membership.crash("host2")

    env.process(crash_later(env))
    env.run(until=20.0)
    assert "host2" not in group.view
    assert len(group.view) == 3
