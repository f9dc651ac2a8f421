"""Replay checker: "the sim is deterministic" as a testable property.

A run's identity is what its participants did and saw, and when: the
domain result — outcome, the sanitizer's ordered access trace, conflict
counts — plus the flight journal of every RNG draw, packet hop and drop,
lock transition and actor spawn/exit at its simulated instant.  How many
queue entries the kernel spent getting there is not part of it, so the
result's ``events_scheduled`` / ``events_processed`` and the journal's
dispatch channel are left out.  :func:`run_digest` hashes that identity;
the CLI runs a workload twice with one seed — each run under a fresh
metrics registry, conflict sanitizer and recorder — and compares.  Any
hidden wall-clock read, foreign RNG or hash-order dependence shows up
as a digest mismatch::

    PYTHONPATH=src python -m repro.analysis.replay locks-soft
    PYTHONPATH=src python -m repro.analysis.replay --list

Exit status is 0 when the digests match, 1 when they differ.
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


def run_digest(name: str, seed: int = 31) -> str:
    """The identity of one isolated run: its result and its journal.

    The journal is the recorder's last chained epoch digest, which
    covers every record before it.
    """
    recorder = FlightRecorder(journal_dispatch=False,
                              epoch_interval=EPOCH_INTERVAL)
    with use_flight(recorder):
        result = run_isolated(name, seed)
    recorder.finish()
    return trace_digest({"result": trace_digest(result),
                         "journal": recorder.epoch_digests[-1:]})


def replay(name: str, seed: int = 31) -> Tuple[str, str, bool]:
    """Run ``name`` twice with ``seed``; returns (digest1, digest2, ok)."""
    first = run_digest(name, seed)
    second = run_digest(name, seed)
    return first, second, first == second


def _diff(name: str, seed: int, out) -> None:
    """Print the keys whose values differ between two runs."""
    first = run_isolated(name, seed)
    second = run_isolated(name, seed)
    for key in sorted(set(first) | set(second)):
        a, b = first.get(key), second.get(key)
        if a != b:
            out.write("  {}: {!r} != {!r}\n".format(key, a, b))


def _localize(name: str, seed: int, out) -> None:
    """Name the first divergent flight epoch and point at the localizer.

    Two more runs under the flight recorder (imported lazily — the
    happy path never touches it) compare chained per-epoch digests of
    kernel decisions; the divergence CLI can then re-journal just that
    epoch and print the first mismatched record with causal context.
    """
    from repro.obs.divergence import compare_digests

    report = compare_digests(name, seed)
    if report["diverged"]:
        out.write("first divergent flight epoch: {} (of {} / {})\n"
                  .format(report["epoch"], *report["epochs"]))
        out.write("localize it: PYTHONPATH=src python -m "
                  "repro.obs.divergence {} --seed {}\n".format(name, seed))
    else:
        out.write("flight digests agree ({} epoch(s)): the divergence "
                  "is outside the journalled channels (dispatch/rng/"
                  "net/locks/actors)\n".format(report["epochs"][0]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.replay",
        description="Run a workload twice with one seed and diff the "
                    "event-trace digests.")
    parser.add_argument("workload", nargs="?",
                        help="workload name (see --list)")
    parser.add_argument("--seed", type=int, default=31,
                        help="experiment seed (default 31)")
    parser.add_argument("--list", action="store_true",
                        help="list known workloads and exit")
    options = parser.parse_args(argv)
    if options.list:
        for name in sorted(WORKLOADS):
            print(name)
        return 0
    if options.workload is None:
        parser.error("a workload name is required (see --list)")
    try:
        first, second, ok = replay(options.workload, seed=options.seed)
    except KeyError as error:
        print("error: {}".format(error.args[0]), file=sys.stderr)
        return 2
    print("run 1: {}".format(first))
    print("run 2: {}".format(second))
    if ok:
        print("REPLAY OK: {} (seed {}) is deterministic".format(
            options.workload, options.seed))
        return 0
    print("REPLAY MISMATCH: {} (seed {}) diverged between runs".format(
        options.workload, options.seed))
    _diff(options.workload, options.seed, sys.stdout)
    _localize(options.workload, options.seed, sys.stdout)
    return 1


if __name__ == "__main__":
    sys.exit(main())
