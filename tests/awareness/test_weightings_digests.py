"""Tests for Portholes-style digests."""

import pytest

from repro.awareness import AwarenessBus, DigestService
from repro.errors import ReproError
from repro.sim import Environment


def test_digest_service_batches_events():
    env = Environment()
    bus = AwarenessBus(env)
    service = DigestService(env, bus, interval=10.0)
    digests = []
    service.subscribe("bob", digests.append)

    def activity(env):
        for i in range(5):
            yield env.timeout(1.0)
            bus.publish("alice", "doc", "edit")

    env.process(activity(env))
    env.run(until=10.5)
    assert len(digests) == 1
    assert digests[0].activity_count == 5
    assert digests[0].actors == ["alice"]
    assert digests[0].artefacts == ["doc"]


def test_digest_skips_empty_periods():
    env = Environment()
    bus = AwarenessBus(env)
    service = DigestService(env, bus, interval=5.0)
    digests = []
    service.subscribe("bob", digests.append)
    env.run(until=20.0)
    assert digests == []


def test_digest_excludes_own_actions():
    env = Environment()
    bus = AwarenessBus(env)
    service = DigestService(env, bus, interval=5.0)
    alice_digests = []
    bob_digests = []
    service.subscribe("alice", alice_digests.append)
    service.subscribe("bob", bob_digests.append)
    bus.publish("alice", "doc", "edit")
    env.run(until=6.0)
    assert alice_digests == []  # only her own activity this period
    assert len(bob_digests) == 1


def test_digest_interval_validation():
    env = Environment()
    bus = AwarenessBus(env)
    with pytest.raises(ReproError):
        DigestService(env, bus, interval=0)
