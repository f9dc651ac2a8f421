"""Replay checker: "the sim is deterministic" as a testable property.

A run's identity is what its participants did and saw, and when: the
domain result — outcome, the sanitizer's ordered access trace, conflict
counts — plus the flight journal of every RNG draw, packet hop and drop,
lock transition and actor spawn/exit at its simulated instant.  How many
queue entries the kernel spent getting there is not part of it, so the
result's ``events_scheduled`` / ``events_processed`` and the journal's
dispatch channel are left out.  :func:`run_digest` hashes that identity;
the CLI runs a workload twice — each run under a fresh metrics registry,
conflict sanitizer and recorder — and compares.  A hidden wall-clock
read or a foreign RNG shows up as a digest mismatch; hash-order
dependence does not, because both runs share one process and so one
``PYTHONHASHSEED``::

    PYTHONPATH=src python -m repro.analysis.replay locks-soft
    PYTHONPATH=src python -m repro.analysis.replay locks-hard --seed2 32
    PYTHONPATH=src python -m repro.analysis.replay --list

On a mismatch, or whenever ``--seed2`` names the second run's seed, the
CLI also localizes the fork (:func:`repro.obs.divergence.localize`): the
result keys that differ, the first epoch of the identity's journal chain
where the runs part, and that epoch's first mismatched record.  Exit
status is 0 when the digests match, 1 when they differ, 2 for an unknown
workload.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from typing import Any, Dict, Optional, Tuple

from repro.analysis.hb import ConflictSanitizer, use_sanitizer
from repro.analysis.workloads import WORKLOADS, run_workload
from repro.obs.flight import FlightRecorder, use_flight
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import Tracer, use_tracer

#: The kernel's own bookkeeping inside a result's ``"env"`` block.
KERNEL_COUNTERS = ("events_scheduled", "events_processed")

#: Journal epochs are fixed spans of simulated time, so where the chain
#: is cut does not depend on how many events the kernel queued.
EPOCH_INTERVAL = 0.5


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


def run_isolated(name: str, seed: int = 31,
                 sanitizer: Optional[ConflictSanitizer] = None,
                 tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """One workload run under a fresh metrics registry and sanitizer.

    The one way to run a workload so that nothing of an earlier run
    reaches it.  A caller that reads the sanitizer afterwards passes its
    own (fresh) one; a caller that wants spans passes the tracer to
    record them into — without one the ambient tracer stays.
    """
    if sanitizer is None:
        sanitizer = ConflictSanitizer()
    traced = use_tracer(tracer) if tracer is not None \
        else contextlib.nullcontext()
    with use_metrics(MetricsRegistry()), use_sanitizer(sanitizer), traced:
        return run_workload(name, seed=seed)


def journal(**retention: Any) -> FlightRecorder:
    """The recorder a run's identity is journalled by.

    :func:`run_digest` and the divergence localizer both build theirs
    here, so the localizer bisects the very chain the identity ends in.
    ``retention`` (``ring``, ``keep_epochs``, ``context``) decides what
    is kept for reading, never what is digested.
    """
    return FlightRecorder(journal_dispatch=False,
                          epoch_interval=EPOCH_INTERVAL, **retention)


def journalled(name: str, seed: int, recorder: FlightRecorder,
               tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """:func:`run_isolated` under ``recorder``, finished; the result."""
    with use_flight(recorder):
        result = run_isolated(name, seed, tracer=tracer)
    recorder.finish()
    return result


def run_digest(name: str, seed: int = 31) -> str:
    """The identity of one isolated run: its result and its journal.

    The journal is the recorder's last chained epoch digest, which
    covers every record before it.
    """
    recorder = journal()
    result = journalled(name, seed, recorder)
    return trace_digest({"result": trace_digest(result),
                         "journal": recorder.epoch_digests[-1:]})


def replay(name: str, seed: int = 31) -> Tuple[str, str, bool]:
    """Run ``name`` twice with ``seed``; returns (digest1, digest2, ok)."""
    first = run_digest(name, seed)
    second = run_digest(name, seed)
    return first, second, first == second


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.replay",
        description="Run a workload twice and compare the run digests; "
                    "on a mismatch, localize the fork.")
    parser.add_argument("workload", nargs="?",
                        help="workload name (see --list)")
    parser.add_argument("--seed", type=int, default=31,
                        help="experiment seed (default 31)")
    parser.add_argument("--seed2", type=int, default=None,
                        help="the second run's seed (default: --seed); "
                             "always localizes")
    parser.add_argument("--list", action="store_true",
                        help="list known workloads and exit")
    options = parser.parse_args(argv)
    if options.list:
        for name in sorted(WORKLOADS):
            print(name)
        return 0
    if options.workload is None:
        parser.error("a workload name is required (see --list)")
    name, seed = options.workload, options.seed
    seed2 = seed if options.seed2 is None else options.seed2
    try:
        first, second = run_digest(name, seed), run_digest(name, seed2)
    except KeyError as error:
        print("error: {}".format(error.args[0]), file=sys.stderr)
        return 2
    runs = "seed {}".format(seed) if seed2 == seed \
        else "seed {} vs seed {}".format(seed, seed2)
    print("run 1: {}".format(first))
    print("run 2: {}".format(second))
    if first == second:
        print("REPLAY OK: {} ({}): no divergence".format(name, runs))
    else:
        print("REPLAY MISMATCH: {} ({}): the runs diverged".format(
            name, runs))
    if first != second or options.seed2 is not None:
        # Imported here: the happy path never needs the localizer.
        from repro.obs.divergence import localize, render
        render(localize(name, seed, seed2))
    return 0 if first == second else 1


if __name__ == "__main__":
    sys.exit(main())
