"""Recovery policies: retry backoff, deadline budgets, circuit breaking.

The paper's §2.3 observation — *"reliability stems from the system as a
whole"* — means individual interactions must expect failure and recover
without destroying the collective activity.  This module supplies the
three standard recovery disciplines as small, deterministic objects:

* :class:`RetryPolicy` — exponential backoff with *deterministic* jitter
  (drawn from a named :class:`~repro.sim.rng.RandomStreams` stream, so
  the same experiment seed yields the same retry timing, run after run).
* :class:`DeadlineBudget` — a total-latency budget shared by every
  attempt of one logical operation; retrying stops when the next wait
  would overrun it.
* :class:`CircuitBreaker` — per-destination failure accounting with the
  classic closed → open → half-open lifecycle, driven entirely by the
  simulation clock.

:class:`FaultPolicies` bundles them for the opt-in wiring points
(:class:`~repro.net.transport.ReliableChannel`,
:meth:`RpcEndpoint.call <repro.net.transport.RpcEndpoint.call>`,
:meth:`Nucleus.invoke <repro.node.runtime.Nucleus.invoke>`).  Everything
defaults to "no policy installed", in which case the wrapped code paths
are byte-identical to their pre-fault behaviour.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional

from repro.errors import SimulationError


class RetryPolicy:
    """Exponential backoff with an optional cap and deterministic jitter.

    ``delay(attempt)`` returns the wait before retry number ``attempt``
    (0-based): ``base * multiplier**attempt``, clipped to ``cap`` and
    spread by ``jitter`` (a fraction in ``[0, 1)``; the draw comes from
    the supplied seeded ``rng`` so backoff timing replays exactly).
    ``multiplier=1.0`` with no jitter reproduces a fixed retry interval —
    the pre-policy behaviour of :class:`~repro.net.transport.ReliableChannel`.
    """

    def __init__(self, base: float = 0.2, multiplier: float = 2.0,
                 cap: Optional[float] = None, jitter: float = 0.0,
                 max_retries: int = 8,
                 rng: Optional[random.Random] = None) -> None:
        if not 0 < base < math.inf:
            raise SimulationError(
                "base must be a positive finite number: {!r}".format(base))
        if not 1.0 <= multiplier < math.inf:
            raise SimulationError(
                "multiplier must be a finite number >= 1: {!r}".format(
                    multiplier))
        if cap is not None and not cap >= base:
            raise SimulationError(
                "cap must be >= base: {!r}".format(cap))
        if not 0.0 <= jitter < 1.0:
            raise SimulationError("jitter must be a fraction in [0, 1)")
        if jitter > 0 and rng is None:
            raise SimulationError(
                "jittered backoff needs a seeded rng stream "
                "(RandomStreams(seed).stream(...)) to stay replayable")
        if max_retries < 0:
            raise SimulationError("max_retries must be non-negative")
        self.base = base
        self.multiplier = multiplier
        self.cap = cap
        self.jitter = jitter
        self.max_retries = max_retries
        self._rng = rng

    def delay(self, attempt: int) -> float:
        """The wait before 0-based retry ``attempt``."""
        delay = self.base * (self.multiplier ** attempt)
        if self.cap is not None:
            delay = min(delay, self.cap)
        if self.jitter > 0:
            # Symmetric spread around the nominal delay; the stream is
            # seeded by the experiment, so the sequence is replayable.
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return delay

    def __repr__(self) -> str:
        return "<RetryPolicy base={:g} x{:g} cap={} jitter={:g} max={}>".format(
            self.base, self.multiplier, self.cap, self.jitter,
            self.max_retries)


def fixed_retry(interval: float, max_retries: int) -> RetryPolicy:
    """The degenerate policy: a constant interval (legacy behaviour)."""
    return RetryPolicy(base=interval, multiplier=1.0,
                       max_retries=max_retries)


class DeadlineBudget:
    """A total-latency budget for one logical operation.

    Created at the start of the operation; each retry loop asks
    :meth:`allows` whether a further wait still fits.  Budgets make the
    retry/abort decision explicit instead of letting backoff series
    silently exceed what the caller (a human in a session) will wait.
    """

    def __init__(self, env, budget: float) -> None:
        if not budget > 0:
            raise SimulationError(
                "budget must be positive: {!r}".format(budget))
        self.env = env
        self.budget = budget
        self.started_at = env.now
        self.deadline = env.now + budget

    @property
    def remaining(self) -> float:
        """Seconds left before the deadline (may be negative)."""
        return self.deadline - self.env.now

    def allows(self, extra_wait: float = 0.0) -> bool:
        """Would now + ``extra_wait`` still land inside the budget?"""
        return self.env.now + extra_wait < self.deadline

    def __repr__(self) -> str:
        return "<DeadlineBudget {:.3g}s left of {:.3g}s>".format(
            self.remaining, self.budget)


#: Circuit breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class _BreakerState:
    __slots__ = ("state", "failures", "opened_at", "trial_inflight")

    def __init__(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.trial_inflight = False


class CircuitBreaker:
    """Per-destination failure accounting with fail-fast behaviour.

    After ``failure_threshold`` consecutive failures to one destination
    the circuit *opens*: further calls are refused locally (fail fast,
    no network cost) until ``reset_timeout`` simulated seconds pass.
    The first call after that runs as a *half-open* trial: success
    closes the circuit, failure re-opens it for another timeout.

    State transitions land in the metrics registry
    (``breaker.opened`` / ``breaker.closed`` / ``breaker.rejected``
    counters, labelled by destination) so graceful-degradation
    experiments can read how often the breaker saved a caller.
    """

    def __init__(self, env, failure_threshold: int = 5,
                 reset_timeout: float = 30.0, name: str = "") -> None:
        if failure_threshold < 1:
            raise SimulationError("failure_threshold must be >= 1")
        if not reset_timeout > 0:
            raise SimulationError(
                "reset_timeout must be positive: {!r}".format(reset_timeout))
        self.env = env
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.name = name
        self._states: Dict[str, _BreakerState] = {}
        self.rejected = 0

    def _state(self, dst: str) -> _BreakerState:
        state = self._states.get(dst)
        if state is None:
            state = self._states[dst] = _BreakerState()
        return state

    def state(self, dst: str) -> str:
        """The circuit state for ``dst`` (resolving open → half-open)."""
        state = self._state(dst)
        if state.state == OPEN and \
                self.env.now - state.opened_at >= self.reset_timeout:
            state.state = HALF_OPEN
            state.trial_inflight = False
        return state.state

    def allow(self, dst: str) -> bool:
        """May a call to ``dst`` proceed?  Counts rejections."""
        current = self.state(dst)
        state = self._state(dst)
        if current == CLOSED:
            return True
        if current == HALF_OPEN and not state.trial_inflight:
            state.trial_inflight = True
            return True
        self.rejected += 1
        self.env.metrics.counter("breaker.rejected", dst=dst).add()
        return False

    def record_success(self, dst: str) -> None:
        """A call to ``dst`` succeeded; close the circuit."""
        state = self._state(dst)
        if state.state != CLOSED:
            self.env.metrics.counter("breaker.closed", dst=dst).add()
        state.state = CLOSED
        state.failures = 0
        state.trial_inflight = False

    def record_failure(self, dst: str) -> None:
        """A call to ``dst`` failed; maybe open the circuit."""
        state = self._state(dst)
        if state.state == HALF_OPEN:
            # The trial failed: straight back to open.
            state.state = OPEN
            state.opened_at = self.env.now
            state.trial_inflight = False
            self.env.metrics.counter("breaker.opened", dst=dst).add()
            return
        state.failures += 1
        if state.state == CLOSED and \
                state.failures >= self.failure_threshold:
            state.state = OPEN
            state.opened_at = self.env.now
            self.env.metrics.counter("breaker.opened", dst=dst).add()

    def snapshot(self) -> Dict[str, str]:
        """Current per-destination states (stable key order)."""
        return {dst: self.state(dst) for dst in sorted(self._states)}

    def __repr__(self) -> str:
        return "<CircuitBreaker {} dests={} rejected={}>".format(
            self.name or "-", len(self._states), self.rejected)


class CircuitOpenError(SimulationError):
    """A call was refused locally because the destination's circuit is
    open (fail fast — the recent history says it would not succeed)."""


class FaultPolicies:
    """The bundle an invoker opts into: retry + deadline + breaker.

    All parts are optional; an absent part simply does not constrain the
    call.  One bundle may be shared by many callers (the breaker then
    aggregates failure history across them, which is the point).
    """

    def __init__(self, retry: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 deadline: Optional[float] = None) -> None:
        if deadline is not None and not deadline > 0:
            raise SimulationError(
                "deadline must be positive: {!r}".format(deadline))
        self.retry = retry
        self.breaker = breaker
        self.deadline = deadline

    def budget(self, env) -> Optional[DeadlineBudget]:
        """A fresh budget for one logical operation (None if unbounded)."""
        if self.deadline is None:
            return None
        return DeadlineBudget(env, self.deadline)

    def __repr__(self) -> str:
        return "<FaultPolicies retry={} breaker={} deadline={}>".format(
            self.retry is not None, self.breaker is not None, self.deadline)
