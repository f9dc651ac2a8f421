"""Workflow substrates: formal and informal coordination (§3.2.1)."""

from repro.workflow.procedures import (
    Procedure,
    ProcedureInstance,
    STRICT,
    Step,
    TOLERANT,
)
from repro.workflow.routing import FlexibleRouter, WorkObject
from repro.workflow.speech_acts import (
    COMPLETED,
    CUSTOMER,
    Conversation,
    PERFORMER,
    PROMISED,
    REPORTED,
    REQUESTED,
    TRANSITIONS,
    run_trace,
)

__all__ = [
    "COMPLETED",
    "CUSTOMER",
    "Conversation",
    "FlexibleRouter",
    "PERFORMER",
    "PROMISED",
    "Procedure",
    "ProcedureInstance",
    "REPORTED",
    "REQUESTED",
    "STRICT",
    "Step",
    "TOLERANT",
    "TRANSITIONS",
    "WorkObject",
    "run_trace",
]
