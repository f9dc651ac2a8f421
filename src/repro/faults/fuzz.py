"""Seeded chaos search: generated fault schedules vs. workload invariants.

The repo's chaos workloads each ship one hand-written
:class:`~repro.faults.schedule.FaultSchedule`.  This module searches the
space *around* those schedules: a seeded generator samples random but
valid schedules — link cuts, partitions, node crashes, latency storms,
loss bursts, overlapping freely — and injects each into an unmodified
workload through the ambient schedule override
(:func:`~repro.faults.schedule.use_schedule_override`).  Every trial
runs the workload once under one sim seed and checks the profile's
invariants on the result.

On a violation the campaign can delta-debug the schedule down to a
minimal reproducer (:mod:`repro.faults.shrink`) and serialize it into
the corpus (:mod:`repro.faults.corpus`), where it becomes a permanent
``fuzz-reg-<id>`` regression workload.

Everything is a pure function of the campaign seed: the generator draws
from its own :class:`~repro.sim.RandomStreams` (never the workload's),
times sit on a 0.25 s grid, and the campaign summary carries a digest so
CI can assert two runs of ::

    python -m repro.faults.fuzz --workload partition-recovery \\
        --budget 25 --seed 7

print byte-identical reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.replay import run_isolated, trace_digest
from repro.errors import SimulationError
from repro.faults.corpus import make_entry, write_entry
from repro.faults.schedule import FaultSchedule, use_schedule_override
from repro.faults.shrink import shrink_schedule
from repro.sim import RandomStreams

#: Version tag of the campaign summary format.
CAMPAIGN_SCHEMA = "repro-fuzz-campaign/2"

#: The sim seed every trial runs under.
WORKLOAD_SEED = 31

#: All generated times land on this grid (keeps shrinking stable and
#: schedules human-readable).
TIME_QUANTUM = 0.25

#: Shortest generated fault, long enough for failure detectors to trip.
MIN_DURATION = 2.0

STORM_SCALES = (2.0, 4.0, 8.0)
LOSS_RATES = (0.2, 0.4, 0.6)

#: Relative likelihood of each operation the generator can emit.
OP_WEIGHTS = (("link", 3.0), ("partition", 2.0), ("crash", 2.0),
              ("storm", 2.0), ("loss", 2.0))

Invariant = Callable[[FaultSchedule, Dict[str, Any]], Optional[str]]


class FuzzProfile:
    """What the fuzzer may do to one workload — and what must hold.

    ``active`` bounds generated onset times, ``heal_by`` is the latest
    allowed lift (every generated schedule is balanced by construction).
    ``max_ops`` caps operations per schedule.  ``invariants`` is a tuple
    of ``(name, check(schedule, result) -> message | None)`` domain
    checks; a message is a violation of ``invariant:<name>``.
    """

    __slots__ = ("name", "active", "heal_by", "max_ops", "invariants")

    def __init__(self, name: str, active: Tuple[float, float],
                 heal_by: float, max_ops: int = 3,
                 invariants: Tuple[Tuple[str, Invariant], ...] = ()
                 ) -> None:
        if not 0 <= active[0] < active[1]:
            raise SimulationError(
                "active must be a non-empty window of times: {!r}".format(
                    active))
        if not active[0] + MIN_DURATION <= heal_by < math.inf:
            raise SimulationError(
                "heal_by must be a finite time at least {:g} s after the "
                "window opens: {!r}".format(MIN_DURATION, heal_by))
        if max_ops < 1:
            raise SimulationError(
                "max_ops must be at least 1: {!r}".format(max_ops))
        self.name = name
        self.active = active
        self.heal_by = heal_by
        self.max_ops = max_ops
        self.invariants = invariants

    def violations(self, schedule: FaultSchedule,
                   result: Dict[str, Any]) -> List[Dict[str, str]]:
        """Every invariant ``result`` breaks, in declaration order."""
        violations = []
        for name, check in self.invariants:
            message = check(schedule, result)
            if message is not None:
                violations.append({"oracle": "invariant:" + name,
                                   "message": message})
        return violations

    def __repr__(self) -> str:
        return "<FuzzProfile {} active={} heal_by={}>".format(
            self.name, self.active, self.heal_by)


def _view_recovers(schedule: FaultSchedule,
                   result: Dict[str, Any]) -> Optional[str]:
    """partition-recovery's domain invariant: suspicion is reversible.

    If any member was ever suspected and every fault has lifted, some
    later view must contain the full membership again.  "Full" is the
    largest membership any view reached, so the check does not encode
    the workload's member list.
    """
    if not schedule.balanced():
        return None
    suspicions = result.get("suspicions") or []
    views = result.get("views") or []
    if not suspicions or not views:
        return None
    full_size = max(len(view["members"]) for view in views)
    last_suspected_at = max(record["at"] for record in suspicions)
    for view in views:
        if view["at"] > last_suspected_at \
                and len(view["members"]) == full_size:
            return None
    return ("a member was suspected (last at t={:g}) but no later view "
            "ever regained full membership, although every fault "
            "lifted".format(last_suspected_at))


#: Per-workload fuzzing contracts.  Only listed workloads are fuzzable:
#: the profile is what makes a generated schedule *valid* (onsets inside
#: the active window, lifts before the drain) and its invariants what a
#: trial is judged on.
PROFILES: Dict[str, FuzzProfile] = {
    "partition-recovery": FuzzProfile(
        "partition-recovery", active=(2.0, 30.0), heal_by=36.0,
        max_ops=3, invariants=(("view-recovers", _view_recovers),)),
}


def get_profile(name: str) -> FuzzProfile:
    """The fuzz profile for ``name`` (KeyError lists the fuzzable set)."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            "no fuzz profile for workload {!r}; fuzzable: {}".format(
                name, ", ".join(sorted(PROFILES))))


# -- schedule generation -----------------------------------------------------


class ScheduleGenerator:
    """Samples random-but-valid schedules for one profile.

    All randomness comes from the single ``rng`` stream handed in (a
    campaign derives one per trial), **never** from the workload's
    streams — generation therefore cannot perturb the workload's own
    draw sequence, so a generating run and a run of the captured
    schedule are the same run.

    The topology is only known inside the run (the ambient override
    passes the live :class:`~repro.net.network.Network` to
    :meth:`generate`), so targets are sampled from sorted node and link
    lists for determinism.
    """

    def __init__(self, profile: FuzzProfile, rng: Any) -> None:
        self.profile = profile
        self._rng = rng

    def _grid(self, lo: float, hi: float) -> float:
        """A uniform draw from the TIME_QUANTUM grid points in [lo, hi]."""
        steps = int(round((hi - lo) / TIME_QUANTUM))
        return lo + TIME_QUANTUM * self._rng.randint(0, max(0, steps))

    def _window(self) -> Tuple[float, float]:
        """(onset, lift): grid-aligned, inside the profile's bounds."""
        lo, hi = self.profile.active
        onset = self._grid(lo, min(hi, self.profile.heal_by - MIN_DURATION))
        lift = self._grid(onset + MIN_DURATION, self.profile.heal_by)
        return onset, lift

    def _pick_link(self, links: List[Any]) -> Tuple[str, str]:
        link = links[self._rng.randrange(len(links))]
        return link.a, link.b

    def generate(self, network: Any) -> FaultSchedule:
        """One balanced schedule against ``network``'s live topology."""
        rng = self._rng
        nodes = sorted(network.topology.nodes)
        links = sorted(network.topology.links(),
                       key=lambda link: (link.a, link.b))
        schedule = FaultSchedule()
        ops = rng.randint(1, self.profile.max_ops)
        for index in range(ops):
            kinds = [kind for kind, _ in OP_WEIGHTS]
            weights = [weight for _, weight in OP_WEIGHTS]
            point = rng.random() * sum(weights)
            acc = 0.0
            op = kinds[-1]
            for kind, weight in zip(kinds, weights):
                acc += weight
                if point <= acc:
                    op = kind
                    break
            onset, lift = self._window()
            if op == "link" and links:
                a, b = self._pick_link(links)
                schedule.link_down(onset, a, b, up_at=lift)
            elif op == "partition" and len(nodes) >= 2:
                size = rng.randint(1, len(nodes) - 1)
                group = sorted(rng.sample(nodes, size))
                rest = sorted(node for node in nodes
                              if node not in group)
                schedule.partition(onset, [group, rest],
                                   name="fz-{}".format(index),
                                   heal_at=lift)
            elif op == "crash" and nodes:
                node = nodes[rng.randrange(len(nodes))]
                schedule.node_crash(onset, node, restart_at=lift)
            elif op == "storm" and links:
                scale = STORM_SCALES[rng.randrange(len(STORM_SCALES))]
                targets = None if rng.random() < 0.5 \
                    else [self._pick_link(links)]
                schedule.latency_storm(onset, scale, lift - onset,
                                       links=targets)
            elif op == "loss" and links:
                rate = LOSS_RATES[rng.randrange(len(LOSS_RATES))]
                targets = None if rng.random() < 0.5 \
                    else [self._pick_link(links)]
                schedule.loss_burst(onset, rate, lift - onset,
                                    links=targets)
        return schedule


# -- trial execution ---------------------------------------------------------


def _judge(profile: FuzzProfile, schedule_dict: Dict[str, Any],
           result: Dict[str, Any]) -> Dict[str, Any]:
    violations = profile.violations(FaultSchedule.from_dict(schedule_dict),
                                    result)
    return {"schedule": schedule_dict, "digest": trace_digest(result),
            "violations": violations,
            "oracles": [violation["oracle"] for violation in violations]}


def evaluate_schedule(name: str, seed: int,
                      schedule_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Run ``name`` once under a fixed schedule and judge it.

    The shrinker's probe and the corpus regression entry point.
    """
    def fixed(network: Any, schedule: FaultSchedule) -> FaultSchedule:
        return FaultSchedule.from_dict(schedule_dict)

    with use_schedule_override(fixed):
        result = run_isolated(name, seed)
    return _judge(get_profile(name), schedule_dict, result)


def run_trial(name: str, generator: ScheduleGenerator) -> Dict[str, Any]:
    """One fuzz trial: the schedule is sampled inside the run, against
    the live topology, then the result is judged."""
    captured: Dict[str, FaultSchedule] = {}

    def generating(network: Any, schedule: FaultSchedule) -> FaultSchedule:
        captured["schedule"] = generator.generate(network)
        return captured["schedule"]

    with use_schedule_override(generating):
        result = run_isolated(name, WORKLOAD_SEED)
    if "schedule" not in captured:
        raise SimulationError(
            "workload {!r} never built a FaultInjector; nothing to "
            "fuzz".format(name))
    return _judge(generator.profile, captured["schedule"].to_dict(), result)


def _shrink_test(name: str, target: str
                 ) -> Callable[[List[Dict[str, Any]]], bool]:
    """"Still fails the same way": the shrinker's probe predicate."""
    def test(events: List[Dict[str, Any]]) -> bool:
        try:
            report = evaluate_schedule(name, WORKLOAD_SEED,
                                       {"events": events})
        except Exception:  # noqa: BLE001 - invalid candidate == no repro
            return False
        return target in report["oracles"]

    return test


# -- campaigns ---------------------------------------------------------------


def campaign_digest(summary: Dict[str, Any]) -> str:
    """SHA-256 over the canonical summary (minus the digest itself)."""
    stripped = {key: value for key, value in summary.items()
                if key != "digest"}
    canonical = json.dumps(stripped, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_campaign(workload: str, budget: int, seed: int,
                 shrink: bool = False, corpus_dir: Optional[str] = None,
                 max_failures: Optional[int] = None) -> Dict[str, Any]:
    """A full fuzz campaign; returns the JSON-safe summary.

    Deterministic in ``seed``: trial ``i`` draws from stream
    ``trial-%05d`` of a campaign-private
    :class:`~repro.sim.RandomStreams`.  ``max_failures`` stops early
    (the remaining budget is reported as unspent); ``corpus_dir``
    serializes each failure's (shrunk) schedule as a corpus entry.
    """
    profile = get_profile(workload)
    streams = RandomStreams(seed)
    failures: List[Dict[str, Any]] = []
    oracle_counts: Dict[str, int] = {}
    events_generated = 0
    trials_run = 0
    for index in range(budget):
        if max_failures is not None and len(failures) >= max_failures:
            break
        rng = streams.stream("trial-{:05d}".format(index))
        trial = run_trial(workload, ScheduleGenerator(profile, rng))
        trials_run += 1
        events_generated += len(trial["schedule"]["events"])
        if not trial["violations"]:
            continue
        for oracle in trial["oracles"]:
            oracle_counts[oracle] = oracle_counts.get(oracle, 0) + 1
        failure: Dict[str, Any] = {
            "trial": index,
            "oracles": trial["oracles"],
            "violations": trial["violations"],
            "schedule": trial["schedule"],
            "digest": trial["digest"],
        }
        target = trial["oracles"][0]
        if shrink:
            report = shrink_schedule(
                trial["schedule"]["events"],
                _shrink_test(workload, target), quantum=TIME_QUANTUM)
            failure["shrink"] = report
            minimal = {"events": report["events"]}
        else:
            minimal = trial["schedule"]
        failure["minimal"] = minimal
        if corpus_dir is not None:
            entry = make_entry(
                workload, WORKLOAD_SEED, target, minimal,
                message=trial["violations"][0]["message"],
                campaign={"seed": seed, "trial": index,
                          "budget": budget})
            path = write_entry(corpus_dir, entry)
            failure["corpus"] = {"id": entry["id"], "path": path}
        failures.append(failure)
    summary = {
        "schema": CAMPAIGN_SCHEMA,
        "workload": workload,
        "budget": budget,
        "seed": seed,
        "workload_seed": WORKLOAD_SEED,
        "trials": trials_run,
        "events_generated": events_generated,
        "failures": failures,
        "failure_count": len(failures),
        "oracle_counts": {key: oracle_counts[key]
                          for key in sorted(oracle_counts)},
        "shrink_enabled": shrink,
    }
    summary["digest"] = campaign_digest(summary)
    return summary


# -- CLI ---------------------------------------------------------------------


def _print_text(summary: Dict[str, Any], out) -> None:
    out.write("fuzz campaign: workload={} budget={} seed={} "
              "workload-seed={}\n".format(
                  summary["workload"], summary["budget"],
                  summary["seed"], summary["workload_seed"]))
    for failure in summary["failures"]:
        out.write("trial {:05d}: FAIL {} ({} event(s))\n".format(
            failure["trial"], ",".join(failure["oracles"]),
            len(failure["schedule"]["events"])))
        for violation in failure["violations"]:
            out.write("  {}: {}\n".format(violation["oracle"],
                                          violation["message"]))
        report = failure.get("shrink")
        if report is not None:
            out.write("  shrunk: {} -> {} event(s) in {} probe(s)\n"
                      .format(report["events_before"],
                              report["events_after"],
                              report["tests_run"]))
        corpus = failure.get("corpus")
        if corpus is not None:
            out.write("  corpus: {} -> {}\n".format(corpus["id"],
                                                    corpus["path"]))
    out.write("trials={} failures={} events-generated={}\n".format(
        summary["trials"], summary["failure_count"],
        summary["events_generated"]))
    if summary["oracle_counts"]:
        out.write("oracle-counts: {}\n".format(" ".join(
            "{}={}".format(key, value) for key, value
            in sorted(summary["oracle_counts"].items()))))
    out.write("campaign digest: {}\n".format(summary["digest"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.fuzz",
        description="Search generated fault schedules for invariant "
                    "violations, deterministically.")
    parser.add_argument("--workload", help="fuzz target (see --list)")
    parser.add_argument("--budget", type=int, default=25,
                        help="number of trials (default 25)")
    parser.add_argument("--seed", type=int, default=7,
                        help="campaign seed driving generation "
                             "(default 7)")
    parser.add_argument("--shrink", action="store_true",
                        help="delta-debug each failing schedule to a "
                             "minimal reproducer")
    parser.add_argument("--corpus", metavar="DIR", default=None,
                        help="write failing (shrunk) schedules as "
                             "corpus entries into DIR")
    parser.add_argument("--max-failures", type=int, default=None,
                        help="stop the campaign after N failures")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--list", action="store_true",
                        help="list fuzzable workloads and exit")
    options = parser.parse_args(argv)
    if options.list:
        for name in sorted(PROFILES):
            profile = PROFILES[name]
            print("{}  active=[{:g},{:g}] heal_by={:g} max_ops={}"
                  .format(name, profile.active[0], profile.active[1],
                          profile.heal_by, profile.max_ops))
        return 0
    if options.workload is None:
        parser.error("--workload is required (see --list)")
    if options.budget < 1:
        parser.error("--budget must be >= 1")
    if options.max_failures is not None and options.max_failures < 1:
        parser.error("--max-failures must be >= 1")
    try:
        get_profile(options.workload)
    except KeyError as error:
        print("error: {}".format(error.args[0]), file=sys.stderr)
        return 2
    summary = run_campaign(
        options.workload, options.budget, options.seed,
        shrink=options.shrink, corpus_dir=options.corpus,
        max_failures=options.max_failures)
    if options.format == "json":
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        _print_text(summary, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
