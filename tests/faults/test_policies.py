"""Tests for recovery policies: backoff, budgets, circuit breaking."""

import pytest

from repro.errors import SimulationError
from repro.faults.policies import (
    CircuitBreaker,
    DeadlineBudget,
    FaultPolicies,
    RetryPolicy,
    fixed_retry,
)
from repro.sim import Environment, RandomStreams


@pytest.fixture
def env():
    return Environment()


def test_backoff_grows_exponentially_to_cap():
    policy = RetryPolicy(base=0.1, multiplier=2.0, cap=0.5)
    assert [policy.delay(i) for i in range(5)] == \
        [0.1, 0.2, 0.4, 0.5, 0.5]


def test_fixed_retry_is_constant_interval():
    policy = fixed_retry(0.2, max_retries=3)
    assert [policy.delay(i) for i in range(4)] == [0.2] * 4
    assert policy.max_retries == 3


def test_jitter_is_deterministic_per_seed():
    def delays(seed):
        rng = RandomStreams(seed).stream("backoff")
        policy = RetryPolicy(base=0.1, jitter=0.3, rng=rng)
        return [policy.delay(i) for i in range(6)]

    assert delays(7) == delays(7)
    assert delays(7) != delays(8)
    # Jitter spreads symmetrically around the nominal delay.
    for i, delay in enumerate(delays(7)):
        nominal = 0.1 * 2 ** i
        assert nominal * 0.7 <= delay <= nominal * 1.3


def test_jitter_without_rng_rejected():
    with pytest.raises(SimulationError):
        RetryPolicy(jitter=0.2)


def test_backoff_validation():
    with pytest.raises(SimulationError):
        RetryPolicy(base=0.0)
    with pytest.raises(SimulationError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(SimulationError):
        RetryPolicy(base=0.5, cap=0.1)
    with pytest.raises(SimulationError):
        RetryPolicy(max_retries=-1)


def test_deadline_budget_tracks_sim_time(env):
    budget = DeadlineBudget(env, 2.0)
    assert budget.allows(1.9)
    assert not budget.allows(2.0)

    def advance(env):
        yield env.timeout(1.5)

    env.run(env.process(advance(env)))
    assert budget.remaining == pytest.approx(0.5)
    assert budget.allows(0.4)
    assert not budget.allows(0.6)


def test_breaker_opens_after_threshold(env):
    metrics = env.metrics
    breaker = CircuitBreaker(env, failure_threshold=3, reset_timeout=10.0)
    for _ in range(2):
        breaker.record_failure("b")
    assert breaker.state("b") == "closed"
    assert breaker.allow("b")
    breaker.record_failure("b")
    assert breaker.state("b") == "open"
    assert not breaker.allow("b")
    assert breaker.rejected == 1
    assert metrics.counter_total("breaker.opened") == 1
    assert metrics.counter_total("breaker.rejected") == 1


def test_breaker_half_open_trial(env):
    breaker = CircuitBreaker(env, failure_threshold=1, reset_timeout=5.0)
    breaker.record_failure("b")
    assert not breaker.allow("b")

    def later(env):
        yield env.timeout(5.0)

    env.run(env.process(later(env)))
    # One trial call passes; a second concurrent one is refused.
    assert breaker.state("b") == "half-open"
    assert breaker.allow("b")
    assert not breaker.allow("b")
    breaker.record_success("b")
    assert breaker.state("b") == "closed"
    assert breaker.allow("b")


def test_breaker_failed_trial_reopens(env):
    breaker = CircuitBreaker(env, failure_threshold=1, reset_timeout=5.0)
    breaker.record_failure("b")

    def later(env):
        yield env.timeout(5.0)

    env.run(env.process(later(env)))
    assert breaker.allow("b")
    breaker.record_failure("b")
    assert breaker.state("b") == "open"
    assert not breaker.allow("b")


def test_breaker_is_per_destination(env):
    breaker = CircuitBreaker(env, failure_threshold=1, reset_timeout=5.0)
    breaker.record_failure("b")
    assert not breaker.allow("b")
    assert breaker.allow("c")
    assert breaker.snapshot() == {"b": "open", "c": "closed"}


def test_policies_bundle(env):
    policies = FaultPolicies(retry=fixed_retry(0.1, 2), deadline=1.0)
    budget = policies.budget(env)
    assert budget is not None and budget.budget == 1.0
    assert FaultPolicies().budget(env) is None
    with pytest.raises(SimulationError):
        FaultPolicies(deadline=0.0)
