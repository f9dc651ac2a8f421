"""Office procedures: Domino-style structured workflow (§3.2.1).

A :class:`Procedure` is an ordered net of steps, each naming the role that
must perform it and the action expected.  A :class:`ProcedureInstance`
advances strictly: wrong performer, wrong action or out-of-order work
raises — or, in *tolerant* mode, is logged as an exception and the work
continues (what real offices do: the working division of labour is
flexible, §2.2).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import WorkflowError


STRICT = "strict"
TOLERANT = "tolerant"


class Step:
    """One step of an office procedure."""

    __slots__ = ("name", "role", "action")

    def __init__(self, name: str, role: str, action: str) -> None:
        self.name = name
        self.role = role
        self.action = action

    def __repr__(self) -> str:
        return "<Step {} ({} {})>".format(self.name, self.role,
                                          self.action)


class Procedure:
    """A named, ordered list of steps."""

    def __init__(self, name: str, steps: List[Step]) -> None:
        if not steps:
            raise WorkflowError("a procedure needs at least one step")
        names = [step.name for step in steps]
        if len(set(names)) != len(names):
            raise WorkflowError("step names must be unique")
        self.name = name
        self.steps = list(steps)

    def instantiate(self, mode: str = STRICT) -> "ProcedureInstance":
        """Start a new case of this procedure."""
        return ProcedureInstance(self, mode)


class ProcedureInstance:
    """A running case of a procedure."""

    def __init__(self, procedure: Procedure, mode: str = STRICT) -> None:
        if mode not in (STRICT, TOLERANT):
            raise WorkflowError("unknown mode: " + mode)
        self.procedure = procedure
        self.mode = mode
        self.position = 0
        self.exceptions: List[Tuple[int, str, str, str]] = []
        self.performed: List[Tuple[str, str, str]] = []

    @property
    def complete(self) -> bool:
        return self.position >= len(self.procedure.steps)

    def perform(self, performer_role: str, action: str) -> bool:
        """Attempt the next piece of work.

        Returns True when the step advanced.  A deviation (wrong role or
        wrong action) raises in strict mode; in tolerant mode it is
        recorded as an exception and the step advances anyway — the
        informal reallocation of work the ethnographic studies observed.
        """
        if self.complete:
            raise WorkflowError(
                "this case of {} is already complete".format(
                    self.procedure.name))
        step = self.procedure.steps[self.position]
        deviation = None
        if performer_role != step.role:
            deviation = "role: expected {}, got {}".format(
                step.role, performer_role)
        elif action != step.action:
            deviation = "action: expected {}, got {}".format(
                step.action, action)
        if deviation is not None:
            if self.mode == STRICT:
                raise WorkflowError(
                    "{} step {}: {}".format(
                        self.procedure.name, step.name, deviation))
            self.exceptions.append(
                (self.position, step.name, performer_role, action))
        self.performed.append((step.name, performer_role, action))
        self.position += 1
        return True

    def run_trace(self,
                  trace: List[Tuple[str, str]]) -> Tuple[bool, int]:
        """Replay (role, action) work items; returns (completed, errors).

        Strict mode counts raised deviations (the case stalls on each);
        tolerant mode counts logged exceptions.
        """
        errors = 0
        for role, action in trace:
            if self.complete:
                break
            try:
                self.perform(role, action)
            except WorkflowError:
                errors += 1
        return (self.complete, errors + len(self.exceptions))
