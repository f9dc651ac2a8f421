"""The repository's benchmark: one command, every metric by name.

Three ways in (``python3 bench/run.py ...``; ``src/`` is put on the
children's ``sys.path``, no ``PYTHONPATH`` needed):

``--workload W --seed N --seconds S --trace 0|1``
    One workload, the way the benchmark driver calls it.  ``--trace 0``
    repeats the workload in fresh interpreters — as many repetitions
    as fit ``S`` seconds on the reference box, a number fixed by ``S``
    and the workload, never by the clock — and prints the end-to-end
    metrics; ``--trace 1`` runs it once plain and once under
    ``cProfile`` and prints the per-layer metrics.  The last line of
    standard output is one JSON object.

(no ``--workload``)
    The whole suite: every workload ``REPS`` times, round-robin
    interleaved so a slow moment on the host hits all workloads alike,
    then one traced pass each.  Prints both tables and writes
    ``bench/out/result.json`` for ``bench/compare.py``.

``sweep W --param k=v1,v2,...``
    Scaling curves: one repetition per point of the parameter grid,
    same metric names, printed only.

All three are built on :func:`measure`, so the numbers the driver
gates and the ones ``compare.py`` screens come from the same code.
Every repetition is its own process (``bench/child.py``), one at a
time, so the load never uses more than one core.  Simulated metrics,
counts and the result digest must be identical in every repetition of
a workload, and ``faulty-rpc-observed`` must match ``faulty-rpc`` on
all of them; any disagreement or correctness-gate violation makes the
result ``"correct": false`` and the exit status 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import LAYERS, UNATTRIBUTED  # noqa: E402
from names import END_TO_END, PER_LAYER, SCHEMA, SIMULATED  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")
#: Host seconds one child takes from start to exit on the undisturbed
#: reference box.  It only sizes a driver run: ``--seconds`` divided by
#: it is the number of repetitions, so that number depends on the
#: workload and on ``--seconds`` alone.  Counting repetitions by the
#: clock instead would give faster code more of them, and the minimum
#: over more repetitions (:func:`quiet_wall`) is lower.
CHILD_SECONDS = {"packet-storm": 1.5, "lock-store": 1.7,
                 "edit-session": 1.55, "group-chat": 1.45,
                 "media-conference": 1.5, "faulty-rpc": 1.45,
                 "faulty-rpc-observed": 2.8}
WORKLOAD_NAMES = tuple(CHILD_SECONDS)
#: ``faulty-rpc-observed`` must reproduce ``faulty-rpc``'s simulated
#: results exactly (observability is invisible to the simulation).
PLAIN, OBSERVED = "faulty-rpc", "faulty-rpc-observed"
PARTNER = {PLAIN: OBSERVED, OBSERVED: PLAIN}
CHILD_TIMEOUT = 170
MIN_REPS = 3
#: Repetitions per workload in the whole-suite form.
REPS = 7

Run = Dict[str, Any]


class BenchError(Exception):
    """A repetition crashed without producing a result."""


class Session:
    """Starts the children of one invocation and keeps every
    correctness problem they show: gate violations a child reports and
    disagreements between executions that must agree."""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.problems: List[str] = []

    def child(self, workload: str, profile: bool = False,
              params: Sequence[str] = ()) -> Run:
        """One execution of ``workload`` in a fresh interpreter."""
        command = [sys.executable, CHILD, "--workload", workload,
                   "--seed", str(self.seed), "--scale", repr(self.scale)]
        for item in params:
            command += ["--param", item]
        if profile:
            command.append("--profile")
        done = subprocess.run(
            command, stdout=subprocess.PIPE, cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED="0"),
            timeout=CHILD_TIMEOUT)
        lines = done.stdout.decode("utf-8").strip().splitlines()
        if not lines or done.returncode not in (0, 1):
            raise BenchError("{} exited {} without a result".format(
                workload, done.returncode))
        result = json.loads(lines[-1])
        self.problems.extend("{}: {}".format(workload, violation)
                             for violation in result["violations"])
        return result

    def same(self, reference: Run, other: Run, what: str) -> None:
        """Two executions on the same inputs must agree on everything
        the host cannot influence."""
        if len(reference["slices"]) != len(other["slices"]):
            self.problems.append("{}: timing slices differ".format(what))
        if reference["digest"] != other["digest"]:
            differing = [key for key in reference["simulated"]
                         if reference["simulated"][key]
                         != other["simulated"].get(key)]
            self.problems.append("{}: result digests differ ({})".format(
                what, ", ".join(differing) or "domain result or counts"))


def quiet_wall(reps: List[Run]) -> float:
    """Host seconds the workload takes when the host leaves it alone.

    Every repetition times the same slices of the same simulation
    (``child.run_sliced``).  On a shared machine a whole repetition is
    always hit by *some* interference — back-to-back medians of 7
    whole repetitions moved by 30 % on the reference box — but each
    few-millisecond slice runs undisturbed in at least one repetition,
    so the sum over slices of the fastest time seen moved by 2 %.
    """
    return sum(min(column)
               for column in zip(*(rep["slices"] for rep in reps)))


#: Host seconds ``child.spin()`` takes on the reference box (its
#: CPython included) while nothing disturbs it: 10th percentile over a
#: quiet run.  This constant is the unit of every reported host time;
#: on another machine "reference-pace seconds" are not wall-clock
#: seconds, but two commits measured there still compare.
REFERENCE_SPIN = 50e-6


def host_pace(reps: List[Run]) -> float:
    """How slowly the host ran during these repetitions (1.0 = the
    reference box undisturbed).

    Short bursts of interference are filtered slice by slice, but a
    shared host also runs uniformly slower for tens of seconds at a
    time (+15 to +40 % seen), longer than a whole run.  The children
    time a fixed piece of pure-Python work after every slice; its 10th
    percentile over the run tracks that state, and dividing the host
    times by it cut their run-to-run spread from 10-16 % to 3.5-5 %.
    """
    spins = sorted(spin for rep in reps for spin in rep["spins"])
    return spins[len(spins) // 10] / REFERENCE_SPIN


def paced_wall(reps: List[Run]) -> float:
    """``wall_s``: the run phase in reference-pace seconds."""
    return quiet_wall(reps) / host_pace(reps)


def host_values(reps: List[Run]) -> Dict[str, float]:
    """What the benchmark reports of the host from these repetitions.

    Host times are in *reference-pace seconds* (measured seconds ÷
    :func:`host_pace`): the interference-filtered :func:`quiet_wall`
    for ``wall_s`` (and ``ops_per_s`` derived from it) and the fastest
    set-up of the repetitions for ``setup_s``.  Set-up is nearly all
    ``import repro``, which the reference box does in 0.16 s or, for
    half a minute at a time, in 0.23 s: the median over a run's
    repetitions moved by up to 40 % between back-to-back runs, the
    fastest by 6 %.  ``peak_rss_mb`` is a median.
    """
    wall = paced_wall(reps)
    return {
        "setup_s": min(rep["setup_s"] for rep in reps) / host_pace(reps),
        "wall_s": wall,
        "ops_per_s": reps[0]["ops_ok"] / wall,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"]
                                         for rep in reps),
    }


def end_to_end(reps: List[Run]) -> Dict[str, Dict[str, Any]]:
    """The end-to-end table of one workload over its repetitions.

    ``value`` is what the benchmark reports (:func:`host_values`;
    simulated metrics are exact).  ``low``/``high`` say how far that
    same estimate moves when any one repetition is left out — the
    spread of what is reported, not of the raw repetitions, which a
    filtered ``wall_s`` normally lies below.  ``compare.py`` calls a
    change it cannot tell from that spread ``unresolved``.
    """
    whole = host_values(reps)
    without = [host_values(reps[:index] + reps[index + 1:])
               for index in range(len(reps))] if len(reps) > 1 else []
    table = {}
    for name, unit, _better, _bound in END_TO_END:
        if name in SIMULATED:
            values = [reps[0]["simulated"][name]]
        else:
            values = [whole[name]] + [part[name] for part in without]
        table[name] = {"value": values[0], "low": min(values),
                       "high": max(values), "n": len(reps), "unit": unit}
    return table


def per_layer(plain: Run, wall_s: float, traced: Run,
              obs_overhead: float) -> Dict[str, float]:
    """Every per-layer metric of one workload.

    Counts come from the untraced execution (``wall_s`` is its run
    phase in reference-pace seconds), host time by layer and per-call
    costs from the ``cProfile`` one.
    """
    profile = traced["traced"]
    self_s = profile["self_s"]
    total = sum(self_s.values())
    counts = plain["counts"]
    simulated = plain["simulated"]
    events = simulated["events"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[layer + ".self_s"] = self_s[layer]
        values[layer + ".share"] = ratio(self_s[layer], total)
    values.update(profile["us"])
    values.update({
        "sim.events": events,
        "sim.events_per_op": ratio(events, plain["ops_ok"]),
        "sim.us_per_event": ratio(wall_s, events) * 1e6,
        "sim.timeout_calls": profile["calls"]["sim.timeout_calls"],
        "sim.process_calls": profile["calls"]["sim.process_calls"],
        "sim.sim_s_per_wall_s": ratio(simulated["sim_s"], wall_s),
        "net.self_us_per_packet": ratio(
            self_s["net"], counts.get("net.packets_sent", 0)) * 1e6,
        "concurrency.ot_xforms_per_op": ratio(
            profile["calls"]["xforms"],
            counts.get("concurrency.ot_server_receives", 0)),
        "concurrency.lock_wait_ratio": ratio(
            counts.get("concurrency.lock_waits", 0),
            counts.get("concurrency.lock_requests", 0)),
        "obs.overhead_ratio": obs_overhead,
        # Raw seconds of two single executions: the traced child's
        # pace is unusable, its spins run under the profiler too.
        "trace.overhead_ratio": ratio(traced["wall_s"], plain["wall_s"]),
        "trace.unattributed_share": ratio(self_s[UNATTRIBUTED], total),
    })
    # Counts a workload does not produce are zero: it bypasses the layer.
    return {name: values.get(name, counts.get(name, 0))
            for name, _unit, _better in PER_LAYER}


def write_folded(workload: str, traced: Run) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, workload + ".folded")
    with open(path, "w") as handle:
        for line in traced["traced"]["folded"]:
            handle.write(line + "\n")
    print("folded stacks: " + os.path.relpath(path, ROOT))


def print_end_to_end(workload: str, entry: Dict[str, Any]) -> None:
    print("{}: end-to-end (value [leaving one repetition out: low .. "
          "high]; host times in reference-pace seconds; {} latency "
          "samples)".format(workload, entry["latency_samples"]))
    for name, row in entry["end_to_end"].items():
        print("  {:<20} {:>14.6g} {:<6} [{:.6g} .. {:.6g}] n={}".format(
            name, row["value"], row["unit"], row["low"], row["high"],
            row["n"]))
    print("  {} repetitions, host pace {:.3f} x reference, digest "
          "{}".format(entry["reps"], entry["pace"], entry["digest"]))


def print_per_layer(workload: str, entry: Dict[str, Any]) -> None:
    units = {name: unit for name, unit, _better in PER_LAYER}
    print("{}: per layer".format(workload))
    for name, value in entry["per_layer"].items():
        print("  {:<36} {:>14.6g} {}".format(name, value, units[name]))


def measure(session: Session, workload: str, runs: List[Run],
            partner: Sequence[Run] = (), trace: bool = True,
            params: Sequence[str] = ()) -> Dict[str, Any]:
    """Everything the benchmark says about one workload.

    ``runs`` are its untraced repetitions and ``partner`` those of the
    other of ``faulty-rpc``/``faulty-rpc-observed`` (if any were
    made): all must agree on what the host cannot influence.  The
    end-to-end table comes from ``runs`` alone; with ``trace`` one more
    child runs under ``cProfile`` for the per-layer table and the
    folded stacks.  The driver form, the suite and the sweeps all
    report what this returns.
    """
    first = runs[0]
    for number, run in enumerate(runs[1:], 2):
        session.same(first, run, "{} repetition {}".format(workload, number))
    if partner:
        session.same(first, partner[0], OBSERVED + " vs " + PLAIN)
    entry: Dict[str, Any] = {
        "end_to_end": end_to_end(runs),
        "reps": len(runs),
        "pace": host_pace(runs),
        "digest": first["digest"],
        "attempted": first["simulated"]["attempted"],
        "failed": first["simulated"]["failed"],
        "latency_samples": first["simulated"]["latency_samples"],
    }
    if trace:
        traced = session.child(workload, profile=True, params=params)
        session.same(first, traced, workload + " traced vs untraced")
        if not params:      # a sweep point is not the named workload
            write_folded(workload, traced)
        wall = entry["end_to_end"]["wall_s"]["value"]
        overhead = 0.0
        if partner:
            other = paced_wall(list(partner))
            overhead = wall / other if workload == OBSERVED \
                else other / wall
        entry["per_layer"] = per_layer(first, wall, traced, overhead)
    return entry


def drive(session: Session, workload: str, seconds: float,
          trace: bool) -> Dict[str, Any]:
    """One workload, as the benchmark driver calls it; returns the
    driver's result object."""
    partner = []
    if workload == OBSERVED or (trace and workload == PLAIN):
        partner = [session.child(PARTNER[workload])]
    reps = 1 if trace else max(
        MIN_REPS, int(seconds / CHILD_SECONDS[workload]))
    runs = [session.child(workload) for _ in range(reps)]
    entry = measure(session, workload, runs, partner, trace)
    if trace:
        print_per_layer(workload, entry)
        units = {name: unit for name, unit, _better in PER_LAYER}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in entry["per_layer"].items()}
    else:
        print_end_to_end(workload, entry)
        metrics = {name: {"value": row["value"], "unit": row["unit"]}
                   for name, row in entry["end_to_end"].items()}
    return {"correct": not session.problems,
            "attempted": entry["attempted"], "failed": entry["failed"],
            "metrics": metrics}


def suite(session: Session, workloads: Sequence[str], reps: int,
          out: str) -> Dict[str, Any]:
    """Every workload ``reps`` times, interleaved, plus a traced pass;
    writes the result ``compare.py`` reads to ``out``."""
    runs: Dict[str, List[Run]] = {w: [] for w in workloads}
    for rep in range(reps):
        for workload in workloads:
            runs[workload].append(session.child(workload))
            print("  rep {}/{} {:<20} wall {:.3f} s".format(
                rep + 1, reps, workload, runs[workload][-1]["wall_s"]),
                file=sys.stderr)
    entries = {workload: measure(session, workload, runs[workload],
                                 runs.get(PARTNER.get(workload), ()))
               for workload in workloads}
    document = {"schema": SCHEMA, "seed": session.seed,
                "scale": session.scale, "correct": not session.problems,
                "workloads": entries}
    for workload, entry in entries.items():
        print_end_to_end(workload, entry)
    for workload, entry in entries.items():
        print_per_layer(workload, entry)
    print("\nhost-time share by layer (traced run)")
    print("  {:<20}".format("workload") + "".join(
        "{:>7}".format(layer[:6]) for layer in LAYERS) + "  unattr")
    for workload, entry in entries.items():
        values = entry["per_layer"]
        print("  {:<20}".format(workload) + "".join(
            "{:>7.3f}".format(values[layer + ".share"])
            for layer in LAYERS) + "  {:.3f}".format(
                values["trace.unattributed_share"]))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("\nwrote " + out)
    return document


SWEEP_COLUMNS = ("wall_s", "ops_per_s", "sim_latency_p50_ms",
                 "sim_latency_p99_ms", "ok_ratio", "peak_rss_mb",
                 "sim.events", "sim.us_per_event",
                 "concurrency.ot_xforms_per_op", "groups.holdback_ratio")


def sweep(session: Session, workload: str, grid: Sequence[str]) -> None:
    """Scaling curves: one repetition per point of the parameter grid
    (printed only)."""
    keys, choices = [], []
    for item in grid:
        key, _, values = item.partition("=")
        keys.append(key)
        choices.append(values.split(","))
    print("sweep of {}: one repetition per point, so host times carry "
          "the host's full noise".format(workload))
    print("  ".join(["{:<16}".format(" ".join(keys))]
                    + [name.replace("sim_latency_", "").split(".")[-1]
                       .rjust(16) for name in SWEEP_COLUMNS] + ["shares"]))
    for point in itertools.product(*choices):
        params = ["{}={}".format(key, value)
                  for key, value in zip(keys, point)]
        entry = measure(session, workload,
                        [session.child(workload, params=params)],
                        params=params)
        row = {name: cell["value"]
               for name, cell in entry["end_to_end"].items()}
        row.update(entry["per_layer"])
        print("  ".join(
            ["{:<16}".format(" ".join(point))]
            + ["{:>16.6g}".format(row[name]) for name in SWEEP_COLUMNS]
            + [" ".join("{}={:.2f}".format(layer, row[layer + ".share"])
                        for layer in LAYERS
                        if row[layer + ".share"] >= 0.01)]))


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print("bench: no src/repro next to bench/ - nothing to measure",
              file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (self-tests)")
    sweeping = bool(argv) and argv[0] == "sweep"
    if sweeping:
        parser.prog += " sweep"
        parser.add_argument("workload", choices=WORKLOAD_NAMES)
        parser.add_argument("--param", action="append", required=True,
                            metavar="k=v1,v2,...")
        args = parser.parse_args(argv[1:])
    else:
        parser.add_argument("--workload", choices=WORKLOAD_NAMES)
        parser.add_argument("--seconds", type=float, default=14.0)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = parser.parse_args(argv)
    session = Session(args.seed, args.scale)
    try:
        if sweeping:
            sweep(session, args.workload, args.param)
        elif args.workload is None:
            suite(session, WORKLOAD_NAMES, REPS,
                  os.path.join(OUT_DIR, "result.json"))
        else:
            print(json.dumps(drive(session, args.workload, args.seconds,
                                   bool(args.trace))))
    except BenchError as error:
        print("bench: " + str(error), file=sys.stderr)
        return 1
    for problem in session.problems:
        print("bench: INCORRECT " + problem, file=sys.stderr)
    return 1 if session.problems else 0


if __name__ == "__main__":
    sys.exit(main())
