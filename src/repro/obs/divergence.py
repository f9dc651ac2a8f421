"""Divergence localizer: find *where* two runs forked, not just that they did.

``python -m repro replay`` proves or refutes determinism by
comparing run identities; this module turns a refutation into a
location, on the identity's own journal.  Both runs are journalled by
the recorder :func:`repro.run.journal` defines — the one a run's
identity (:attr:`repro.run.Result.digest`) ends in — into chained
per-epoch digests; because digest ``e`` covers the whole run prefix up
to epoch ``e``, the first divergent epoch is found by binary search over
the digest lists.  Both runs are then re-executed with full retention
*only* for that epoch (``keep_epochs``), and the first mismatched record
is printed with its causal context: the owning span/trace (via a
recording :class:`~repro.obs.tracer.Tracer`) and the records preceding
the mismatch in each run.

``replay`` prints :func:`render` of :func:`localize` on a digest
mismatch and whenever ``--seed2`` is given (two seeds are a guaranteed
fork, which is how CI smoke-tests the localizer end to end)::

    PYTHONPATH=src python -m repro replay locks-hard --seed 31 --seed2 32
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.flight import EPOCH_INTERVAL, canonical
from repro.obs.tracer import Tracer
from repro.run import RunSpec, journal, run, trace_digest

#: Ring size for the full-retention re-run: must hold every record of
#: the divergent epoch.
JOURNAL_RING = 1 << 16

#: Records shown from before the mismatch, per run.
CONTEXT = 8


def first_divergent_epoch(a: Sequence[str], b: Sequence[str]
                          ) -> Optional[int]:
    """The first epoch whose chained digests differ, or ``None``.

    Chaining gives the prefix property — ``a[e] == b[e]`` implies the
    runs agree on *every* epoch up to ``e`` — so the first mismatch is
    found by binary search rather than a linear scan.  When one run has
    fewer epochs but agrees on the shared prefix, the divergence is the
    first epoch the shorter run never closed.
    """
    limit = min(len(a), len(b))
    if limit == 0 or a[limit - 1] == b[limit - 1]:
        return limit if len(a) != len(b) else None
    lo, hi = 0, limit - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if a[mid] == b[mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def compare_digests(name: str, seed: int, seed2: Optional[int] = None
                    ) -> Dict[str, Any]:
    """The cheap pass: two journalled runs and their first divergence."""
    second_seed = seed if seed2 is None else seed2
    run_a, run_b = journal(), journal()
    result_a = run(RunSpec(name, seed, journal=run_a)).outcome
    result_b = run(RunSpec(name, second_seed, journal=run_b)).outcome
    epoch = first_divergent_epoch(run_a.epoch_digests, run_b.epoch_digests)
    return {
        "workload": name,
        "seed": seed,
        "seed2": second_seed,
        "epochs": [len(run_a.epoch_digests), len(run_b.epoch_digests)],
        "result_digests": [trace_digest(result_a), trace_digest(result_b)],
        "result_keys": sorted(key for key in set(result_a) | set(result_b)
                              if result_a.get(key) != result_b.get(key)),
        "diverged": epoch is not None,
        "epoch": epoch,
    }


def _first_mismatch(records_a: List[Dict[str, Any]],
                    records_b: List[Dict[str, Any]]) -> Optional[int]:
    """Index of the first record pair whose canonical forms differ."""
    for index, (record_a, record_b) in enumerate(zip(records_a,
                                                     records_b)):
        if canonical(record_a) != canonical(record_b):
            return index
    if len(records_a) != len(records_b):
        return min(len(records_a), len(records_b))
    return None


def localize(name: str, seed: int, seed2: Optional[int] = None
             ) -> Dict[str, Any]:
    """Full localization: digest pass, bisection, epoch-only re-journal.

    The re-run records under a recording tracer so journal records carry
    owning-span side metadata; side fields are excluded from digests,
    so traced and untraced runs journal identically.
    """
    report = compare_digests(name, seed, seed2)
    if not report["diverged"]:
        return report
    epoch = report["epoch"]
    journal_a, journal_b = (
        run(RunSpec(name, each, tracer=Tracer(), journal=journal(
            ring=JOURNAL_RING, keep_epochs=(epoch, epoch),
            context=CONTEXT))).journal
        for each in (seed, report["seed2"]))
    records_a = journal_a.epoch_records(epoch)
    records_b = journal_b.epoch_records(epoch)
    index = _first_mismatch(records_a, records_b)
    report["epoch_records"] = [len(records_a), len(records_b)]
    report["record_index"] = index
    if index is None:
        # Digests disagreed but the retained records do not: the fork
        # is past the ring, or one run merely closed more (empty) epochs.
        return report
    preceding_a = (list(journal_a.context) + records_a[:index])[-CONTEXT:]
    preceding_b = (list(journal_b.context) + records_b[:index])[-CONTEXT:]
    report["record_a"] = records_a[index] if index < len(records_a) \
        else None
    report["record_b"] = records_b[index] if index < len(records_b) \
        else None
    report["context_a"] = preceding_a
    report["context_b"] = preceding_b
    return report


# -- rendering -------------------------------------------------------------


def _span_line(record: Optional[Dict[str, Any]]) -> Optional[str]:
    if not record or "_trace" not in record:
        return None
    return "{} ({}, trace {})".format(
        record.get("_op", "?"), record.get("_span", "?"),
        record["_trace"])


def render(report: Dict[str, Any], out=None) -> None:
    """Human-readable localization transcript."""
    out = out if out is not None else sys.stdout
    versus = "seed {} vs seed {}".format(report["seed"], report["seed2"]) \
        if report["seed"] != report["seed2"] \
        else "seed {} self-compare".format(report["seed"])
    out.write("workload {}: {} (epoch = {:g}s of simulated time)\n".format(
        report["workload"], versus, EPOCH_INTERVAL))
    out.write("result keys that differ: {}\n".format(
        ", ".join(report["result_keys"]) or "none"))
    out.write("epochs: run A = {}, run B = {}\n".format(
        *report["epochs"]))
    if not report["diverged"]:
        if report["result_keys"]:
            out.write("journals agree ({} epoch(s)): the results differ "
                      "outside the journalled channels (rng/net/locks/"
                      "actors)\n".format(report["epochs"][0]))
        else:
            out.write("no divergence: all {} epoch digest(s) identical\n"
                      .format(report["epochs"][0]))
        return
    out.write("first divergent epoch: {}\n".format(report["epoch"]))
    index = report.get("record_index")
    if index is None:
        out.write("(no retained record of that epoch differs)\n")
        return
    record_a = report.get("record_a")
    record_b = report.get("record_b")
    out.write("first mismatched record (epoch {}, record {}):\n".format(
        report["epoch"], index))
    out.write("  A: {}\n".format(
        canonical(record_a) if record_a else "<run ended>"))
    out.write("  B: {}\n".format(
        canonical(record_b) if record_b else "<run ended>"))
    for label, record in (("A", record_a), ("B", record_b)):
        span = _span_line(record)
        if span:
            out.write("  owning span ({}): {}\n".format(label, span))
    for label, key in (("A", "context_a"), ("B", "context_b")):
        preceding = report.get(key) or []
        if preceding:
            out.write("context {} — {} record(s) before the "
                      "mismatch:\n".format(label, len(preceding)))
            for record in preceding:
                out.write("  {}| {}\n".format(label, canonical(record)))
