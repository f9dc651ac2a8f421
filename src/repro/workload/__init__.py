"""Synthetic workloads: the users our experiments substitute for humans.

The paper's claims are about systems under *cooperative* use; these
generators produce deterministic, seeded traces with the statistical
structure that matters — think times, edit spans and hot-spot locality
— so every experiment is reproducible from its seed.
"""

from repro.workload.editing import EditEvent, EditingWorkload

__all__ = [
    "EditEvent",
    "EditingWorkload",
]
