"""The one command line: ``python -m repro COMMAND``.

::

    PYTHONPATH=src python -m repro list
    PYTHONPATH=src python -m repro check src/
    PYTHONPATH=src python -m repro replay locks-hard --seed 31 --seed2 32
    PYTHONPATH=src python -m repro replay
    PYTHONPATH=src python -m repro races --format json
    PYTHONPATH=src python -m repro fuzz --workload partition-recovery \\
        --budget 25 --seed 7
    PYTHONPATH=src python -m repro corpus
    PYTHONPATH=src python -m repro dashboard timeline-demo \\
        --tables node,link --critical-path
    PYTHONPATH=src python -m repro profile traced-rpc --folded run.folded
    PYTHONPATH=src python -m repro profile --diff OLD.folded NEW.folded

A ``WORKLOAD`` is an entry of the catalogue
(:data:`repro.workload.catalogue.WORKLOADS`, printed by ``list``, which
marks the fuzzable ones).  :func:`_spec` is the one place that turns
``WORKLOAD --seed`` (default 31) into a :class:`~repro.run.RunSpec`: an
unknown name exits 2, while a ``KeyError`` raised *inside* a workload
propagates as the bug it is.  ``dashboard`` and ``profile`` run a
``TARGET`` that names a workload and read anything else as a JSONL
dump.  ``replay`` with no name replays every entry.

Exit status: 0 when the command succeeds, 1 when its check fails
(findings, a replay mismatch, hard locks that leak, a fixed reproducer
that fails again), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional, Sequence

from repro.analysis import check, races
from repro.errors import SimulationError
from repro.faults import corpus, fuzz
from repro.obs import dashboard, profile
from repro.obs._cli import describe_meta, extract_meta, load_dump_records
from repro.obs.divergence import localize, render as render_divergence
from repro.obs.export import span_record
from repro.obs.tables import DIMENSIONS
from repro.obs.timeline import load_windows
from repro.obs.tracer import Tracer
from repro.run import Result, RunSpec, journal, run
from repro.workload.catalogue import WORKLOADS

#: The workload seed every command defaults to.
SEED = 31


class UsageError(Exception):
    """A command line the program cannot act on: ``error: ...`` on
    stderr and exit status 2."""


def _spec(name: str, seed: int, **observers: Any) -> RunSpec:
    """``WORKLOAD --seed`` as a run spec; an unknown name is a usage
    error, raised before anything runs."""
    try:
        return RunSpec(name, seed, **observers)
    except KeyError as error:
        raise UsageError(error.args[0]) from None


def _traced(target: str, seed: int) -> Optional[Result]:
    """``target``'s run under a recording tracer, or ``None`` when
    ``target`` names no workload (it is then a dump)."""
    if target not in WORKLOADS:
        return None
    return run(_spec(target, seed, tracer=Tracer()))


def _dump(path: str) -> List[Any]:
    try:
        return load_dump_records(path)
    except ValueError as error:
        raise UsageError(str(error)) from None


def row_count(text: str) -> int:
    """The ``--top N`` argument type: a row count, so never negative."""
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(
            "must be >= 0, got {}".format(count))
    return count


# -- the commands -------------------------------------------------------------

def _check(options: argparse.Namespace) -> int:
    passes = [name for name in options.passes.split(",") if name]
    try:
        findings, timings, analysed = check.analyse(options.paths, passes)
    except ValueError as error:
        print("check: {}".format(error), file=sys.stderr)
        return 2
    out = open(options.out, "w", encoding="utf-8") if options.out \
        else sys.stdout
    try:
        check.render_text(findings, timings, analysed, options.timings, out)
    finally:
        if options.out:
            out.close()
    return 1 if findings else 0


def _replay(options: argparse.Namespace) -> int:
    seed = options.seed
    seed2 = seed if options.seed2 is None else options.seed2
    runs = "seed {}".format(seed) if seed2 == seed \
        else "seed {} vs seed {}".format(seed, seed2)
    names = [options.workload] if options.workload else sorted(WORKLOADS)
    status = 0
    for name in names:
        specs = [_spec(name, each, journal=journal())
                 for each in (seed, seed2)]
        first, second = (run(spec).digest for spec in specs)
        print("run 1: {}".format(first))
        print("run 2: {}".format(second))
        if first == second:
            print("REPLAY OK: {} ({}): no divergence".format(name, runs))
        else:
            print("REPLAY MISMATCH: {} ({}): the runs diverged".format(
                name, runs))
            status = 1
        if first != second or options.seed2 is not None:
            render_divergence(localize(name, seed, seed2))
    return status


def _races(options: argparse.Namespace) -> int:
    results = races.conflict_sweep(seed=SEED)
    leaked = races.hard_conflicts(results)
    if options.format == "json":
        document = dict(results)
        document["_meta"] = {"seed": SEED, "hard_conflicts": leaked,
                             "ok": leaked == 0}
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        races.render(results)
        if leaked:
            print("ERROR: hard locks left {} conflict(s) unresolved — "
                  "sanitizer or lock-protocol regression".format(leaked))
    return 1 if leaked else 0


def _fuzz(options: argparse.Namespace) -> int:
    try:
        fuzz.get_profile(options.workload)
        fuzz.check_campaign(options.budget, options.max_failures)
    except KeyError as error:
        raise UsageError(error.args[0]) from None
    except SimulationError as error:
        raise UsageError(str(error)) from None
    summary = fuzz.run_campaign(
        options.workload, options.budget, options.seed,
        shrink=options.shrink, corpus_dir=options.corpus,
        max_failures=options.max_failures)
    if options.format == "json":
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        fuzz.print_text(summary, sys.stdout)
    return 0


def _corpus(options: argparse.Namespace) -> int:
    entries = corpus.load_corpus()
    if not entries:
        print("empty corpus: nothing to verify")
        return 0
    failures = 0
    for entry in entries:
        verdict = corpus.verify_entry(entry)
        ok = not verdict["reproduced"] and verdict["deterministic"]
        failures += 0 if ok else 1
        print("{}  {}  {}  reproduced={} deterministic={}".format(
            "OK " if ok else "BAD", verdict["id"], verdict["oracle"],
            verdict["reproduced"], verdict["deterministic"]))
    if failures:
        print("{} of {} reproducers fail their oracle again or replay "
              "differently".format(failures, len(entries)))
        return 1
    print("all {} reproducers stay fixed".format(len(entries)))
    return 0


def _dashboard(options: argparse.Namespace) -> int:
    dims = [dim.strip() for dim in options.tables.split(",") if dim.strip()]
    unknown = [dim for dim in dims if dim not in DIMENSIONS]
    if unknown:
        raise UsageError("unknown table dimension(s): {} (have: {})".format(
            ", ".join(unknown), ", ".join(sorted(DIMENSIONS))))
    result = _traced(options.target, SEED)
    if result is not None:
        windows = result.outcome.get("windows") or []
        spans = [span_record(span) for span in result.tracer.spans]
        counters: List[Any] = []
        meta = {"workload": options.target, "seed": SEED}
    else:
        records = _dump(options.target)
        windows = load_windows(records)
        spans = [r for r in records if r.get("kind") == "span"]
        counters = [r for r in records if r.get("kind") == "metric"
                    and r.get("type") == "counter"]
        meta = extract_meta(records)
    windows = windows or dashboard.whole_run(spans, counters)
    data = dashboard.dashboard_data(windows, spans, dims,
                                    critical=options.critical_path,
                                    meta=meta)
    try:
        if options.format == "json":
            print(json.dumps(data, sort_keys=True, indent=2))
        else:
            dashboard.render_dashboard(data, top=options.top)
    except BrokenPipeError:
        # Reader (e.g. ``| head``) closed the pipe early; not an error.
        sys.stderr.close()
    return 0


def _profile(options: argparse.Namespace) -> int:
    if options.diff:
        try:
            old, new = (profile.parse_folded(path) for path in options.diff)
        except (OSError, ValueError) as error:
            raise UsageError(str(error)) from None
        profile.render_diff(profile.diff_folded(old, new))
        return 0
    if options.target is None:
        raise UsageError("a TARGET (or --diff OLD NEW) is required")
    result = _traced(options.target, options.seed)
    if result is not None:
        spent = profile.SpanProfile.from_tracer(result.tracer)
        if not len(spent):
            print("note: workload {!r} emitted no finished spans".format(
                options.target), file=sys.stderr)
    else:
        records = _dump(options.target)
        meta_line = describe_meta(extract_meta(records))
        if meta_line is not None:
            print(meta_line)
        spent = profile.SpanProfile.from_records(records)
    profile.render_profile(spent, top=options.top)
    if options.folded:
        lines = spent.dump_folded(options.folded)
        print("\nwrote {} folded stack(s) to {}".format(
            lines, options.folded))
    return 0


def _list(options: argparse.Namespace) -> int:
    for name in sorted(WORKLOADS):
        fuzzable = fuzz.PROFILES.get(name)
        print(name if fuzzable is None else
              "{}  fuzz: active=[{:g},{:g}] heal_by={:g} max_ops={}".format(
                  name, fuzzable.active[0], fuzzable.active[1],
                  fuzzable.heal_by, fuzzable.max_ops))
    return 0


# -- the parser ---------------------------------------------------------------

def parser() -> argparse.ArgumentParser:
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=SEED,
                        help="workload seed (default {})".format(SEED))
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=("text", "json"),
                           default="text", help="output format")
    clipped = argparse.ArgumentParser(add_help=False)
    clipped.add_argument("--top", type=row_count, default=None,
                         metavar="N", help="show at most N rows per table")
    source = "a catalogue workload to run, or a JSONL dump"

    cli = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, check and read the repro simulator's runs.")
    commands = cli.add_subparsers(dest="command", metavar="COMMAND",
                                  required=True)

    sub = commands.add_parser(
        "check", help="static analyzer: determinism lint + sim protocol")
    sub.add_argument("paths", nargs="*", default=["src"],
                     help="files or directories to analyse")
    sub.add_argument("--out", help="write the report to this file")
    sub.add_argument("--passes", default=",".join(check.PASS_NAMES),
                     help="comma-separated subset of: "
                          + ", ".join(check.PASS_NAMES))
    sub.add_argument("--timings", action="store_true",
                     help="print per-pass wall time")
    sub.set_defaults(handler=_check)

    sub = commands.add_parser(
        "replay", parents=[seeded],
        help="run a workload twice and compare digests; localize a fork")
    sub.add_argument("workload", nargs="?", metavar="WORKLOAD",
                     help="catalogue workload (default: every one)")
    sub.add_argument("--seed2", type=int, default=None,
                     help="the second run's seed (default: --seed); "
                          "always localizes")
    sub.set_defaults(handler=_replay)

    sub = commands.add_parser(
        "races", parents=[formatted],
        help="conflicts each lock style leaves unresolved (E3)")
    sub.set_defaults(handler=_races)

    sub = commands.add_parser(
        "fuzz", parents=[formatted],
        help="search generated fault schedules for invariant violations")
    sub.add_argument("--workload", required=True,
                     help="fuzzable workload (see list)")
    sub.add_argument("--budget", type=int, default=25,
                     help="number of trials (default 25)")
    sub.add_argument("--seed", type=int, default=7,
                     help="campaign seed driving generation (default 7)")
    sub.add_argument("--shrink", action="store_true",
                     help="delta-debug each failing schedule")
    sub.add_argument("--corpus", metavar="DIR",
                     help="write each failure as a corpus entry into DIR")
    sub.add_argument("--max-failures", type=int, default=None,
                     help="stop the campaign after N failures")
    sub.set_defaults(handler=_fuzz)

    sub = commands.add_parser(
        "corpus",
        help="re-verify that every checked-in fuzz reproducer stays fixed")
    sub.set_defaults(handler=_corpus)

    sub = commands.add_parser(
        "dashboard", parents=[clipped, formatted],
        help="hot-spot tables and critical paths of a run or dump")
    sub.add_argument("target", metavar="TARGET", help=source)
    sub.add_argument("--tables", default=dashboard.DEFAULT_TABLES,
                     metavar="DIMS",
                     help="comma-separated dimensions (default {})".format(
                         dashboard.DEFAULT_TABLES))
    sub.add_argument("--critical-path", action="store_true",
                     help="aggregate span critical paths into a "
                          "bottleneck table")
    sub.set_defaults(handler=_dashboard)

    sub = commands.add_parser(
        "profile", parents=[seeded, clipped],
        help="where simulated time goes, by operation, node and actor")
    sub.add_argument("target", nargs="?", metavar="TARGET",
                     help=source + " (not with --diff)")
    sub.add_argument("--folded", metavar="PATH",
                     help="also write folded stacks to PATH")
    sub.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                     help="compare two --folded files per operation")
    sub.set_defaults(handler=_profile)

    sub = commands.add_parser(
        "list", help="the workload catalogue; fuzzable entries marked")
    sub.set_defaults(handler=_list)
    return cli


def main(argv: Optional[Sequence[str]] = None) -> int:
    options = parser().parse_args(argv)
    try:
        return options.handler(options)
    except UsageError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
