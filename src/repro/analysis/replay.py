"""Replay checker: "the sim is deterministic" as a testable property.

``python -m repro replay`` runs a workload twice, each a fresh
:func:`repro.run.run` under its own journal, and compares the run
identities (:attr:`repro.run.Result.digest`: the outcome and the flight
journal, without the kernel's own event counts).  A hidden wall-clock read or a
foreign RNG shows up as a digest mismatch; hash-order dependence does
not, because both runs share one process and so one
``PYTHONHASHSEED``::

    PYTHONPATH=src python -m repro replay locks-soft
    PYTHONPATH=src python -m repro replay locks-hard --seed2 32
    PYTHONPATH=src python -m repro replay

With no name it replays every catalogue entry.  On a mismatch, or
whenever ``--seed2`` names the second run's seed, it also localizes the
fork (:func:`repro.obs.divergence.localize`): the result keys that
differ, the first epoch of the identity's journal chain where the runs
part, and that epoch's first mismatched record.  Exit status is 0 when
the digests match, 1 when they differ, 2 for an unknown workload.
"""

from __future__ import annotations

from typing import Tuple

from repro.run import run_digest


def replay(name: str, seed: int = 31) -> Tuple[str, str, bool]:
    """Run ``name`` twice with ``seed``; returns (digest1, digest2, ok)."""
    first, second = run_digest(name, seed), run_digest(name, seed)
    return first, second, first == second
