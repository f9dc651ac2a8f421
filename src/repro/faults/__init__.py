"""Deterministic fault injection and recovery (§2.3).

*"Reliability stems from the system as a whole"* — this package supplies
both halves of that claim: the machinery to *inject* failures
(:mod:`repro.faults.schedule`: timed node crashes, link cuts and flaps,
partitions, latency storms, loss bursts — all seeded, all
replay-checkable) and the machinery to *survive* them
(:mod:`repro.faults.policies`: backoff/deadline/circuit-breaker;
:mod:`repro.faults.detector`: phi-accrual adaptive suspicion;
:mod:`repro.faults.degrade`: graceful degradation of QoS and session
mode).  Chaos workloads live in :mod:`repro.faults.chaos` and register
in :data:`repro.analysis.workloads.WORKLOADS`; the fault search is
:mod:`repro.faults.fuzz`.  Import anything else from its module.
"""

from repro.faults.policies import CircuitBreaker, FaultPolicies, RetryPolicy
from repro.faults.schedule import FaultInjector, FaultSchedule

__all__ = [
    "CircuitBreaker",
    "FaultInjector",
    "FaultPolicies",
    "FaultSchedule",
    "RetryPolicy",
]
