"""Synthetic workloads: the users our experiments substitute for humans.

The paper's claims are about systems under *cooperative* use; these
generators produce deterministic, seeded traces with the statistical
structure that matters — think times, edit spans and hot-spot locality
— so every experiment is reproducible from its seed.

The named, seeded runs that ``python -m repro`` and :func:`repro.run.run`
take by name live here too (:mod:`~repro.workload.locks`,
:mod:`~repro.workload.telemetry`, :mod:`~repro.workload.chaos`), tabled
in :mod:`repro.workload.catalogue`.  They drive the whole stack, so this
package does not import them.
"""

from repro.workload.editing import EditEvent, EditingWorkload

__all__ = [
    "EditEvent",
    "EditingWorkload",
]
