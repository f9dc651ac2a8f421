"""One run of a registered workload: a validated spec in, a result out.

:func:`run` is the one place that composes the observer scopes.  Every
run gets a fresh metrics registry and conflict sanitizer, plus the
tracer, flight journal and fault-schedule override its
:class:`RunSpec` names; an observer the spec leaves out stays whatever
is ambient, so a run nested in another is traced and journalled by the
outer one.  Every ambient value is restored on the way out, also when
the workload raises::

    result = run(RunSpec("locks-soft", 31, journal=journal()))
    result.sanitizer.summary(), result.digest

A run's identity is what its participants did and saw, and when: the
outcome plus the flight journal of every RNG draw, packet hop and drop,
lock transition and actor spawn/exit.  The kernel's own event counts
are left out.  Every :class:`~repro.obs.flight.FlightRecorder`
journals exactly that; :func:`journal` only names what is retained.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
from typing import Any, Callable, Dict, Optional, Union

from repro.analysis.hb import ConflictSanitizer, use_sanitizer
from repro.errors import SimulationError
from repro.faults.schedule import _use_override
from repro.obs.flight import (
    FlightRecorder,
    NoopFlightRecorder,
    get_flight,
    use_flight,
)
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import NoopTracer, Tracer, get_tracer, use_tracer
from repro.workload.catalogue import WORKLOADS

#: The kernel's own bookkeeping inside an outcome's ``"env"`` block.
KERNEL_COUNTERS = ("events_scheduled", "events_processed")


def trace_digest(result: Any) -> str:
    """A canonical SHA-256 over a JSON-serialisable run result.

    A result's ``"env"`` block (``Environment.stats()``) is covered
    without its :data:`KERNEL_COUNTERS`.
    """
    if isinstance(result, dict) and isinstance(result.get("env"), dict):
        result = dict(result, env={
            key: value for key, value in result["env"].items()
            if key not in KERNEL_COUNTERS})
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def journal(**retention: Any) -> FlightRecorder:
    """The recorder a run's identity is journalled by.

    :func:`run_digest` and the divergence localizer both build theirs
    here, so the localizer bisects the very chain the identity ends in.
    ``retention`` (``ring``, ``keep_epochs``, ``context``) decides what
    is kept for reading, never what is digested.
    """
    return FlightRecorder(**retention)


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """What to run, and which observers it writes to.

    ``schedule`` maps each :class:`~repro.faults.schedule.FaultInjector`'s
    ``(network, schedule)`` to the schedule it executes instead.  An
    unknown ``workload`` raises :class:`KeyError`, any other bad field a
    :class:`~repro.errors.SimulationError` starting with its name.
    """

    workload: str
    seed: int
    tracer: Optional[Tracer] = None
    journal: Optional[FlightRecorder] = None
    schedule: Optional[Callable[..., Any]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.workload, str) \
                or self.workload not in WORKLOADS:
            raise KeyError("unknown workload {!r}; known: {}".format(
                self.workload, ", ".join(sorted(WORKLOADS))))
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise SimulationError(
                "seed must be an int, got {!r}".format(self.seed))
        for field, kind in (("tracer", Tracer),
                            ("journal", FlightRecorder)):
            value = getattr(self, field)
            if value is not None and not isinstance(value, kind):
                raise SimulationError("{} must be a {}, got {!r}".format(
                    field, kind.__name__, value))
        if self.schedule is not None and not callable(self.schedule):
            raise SimulationError(
                "schedule must be callable, got {!r}".format(self.schedule))


@dataclasses.dataclass(frozen=True)
class Result:
    """A finished run: its outcome and the observers it wrote to."""

    outcome: Dict[str, Any]
    metrics: MetricsRegistry
    sanitizer: ConflictSanitizer
    tracer: Union[Tracer, NoopTracer]
    journal: Union[FlightRecorder, NoopFlightRecorder]

    @property
    def digest(self) -> str:
        """The run's identity: its outcome and its journal's last chained
        epoch digest (none unless the spec named ``journal=journal()``)."""
        return trace_digest({"result": trace_digest(self.outcome),
                             "journal": self.journal.epoch_digests[-1:]})


def run(spec: RunSpec) -> Result:
    """Run ``spec`` inside its observer scopes; finishes its journal."""
    metrics, sanitizer = MetricsRegistry(), ConflictSanitizer()
    with contextlib.ExitStack() as scopes:
        scopes.enter_context(use_metrics(metrics))
        scopes.enter_context(use_sanitizer(sanitizer))
        if spec.tracer is not None:
            scopes.enter_context(use_tracer(spec.tracer))
        if spec.journal is not None:
            scopes.enter_context(use_flight(spec.journal))
        if spec.schedule is not None:
            scopes.enter_context(_use_override(spec.schedule))
        outcome = WORKLOADS[spec.workload](seed=spec.seed)
        tracer, recorder = get_tracer(), get_flight()
    if spec.journal is not None:
        spec.journal.finish()
    return Result(outcome, metrics, sanitizer, tracer, recorder)


def run_digest(name: str, seed: int = 31) -> str:
    """The identity of one run of ``name`` at ``seed``."""
    return run(RunSpec(name, seed, journal=journal())).digest
