"""Seeded chaos search: generated fault schedules vs. the oracle suite.

The repo's chaos workloads each ship one hand-written
:class:`~repro.faults.schedule.FaultSchedule`.  This module searches the
space *around* those schedules: a seeded generator samples random but
valid schedules — link cuts, partitions, node crashes, latency storms,
loss bursts, overlapping freely — and injects each into an unmodified
workload through the ambient schedule override
(:func:`~repro.faults.schedule.use_schedule_override`).  Every trial
runs the workload **twice** under one sim seed (once generating, once
replaying the captured schedule) and hands the evidence to
:mod:`repro.faults.oracles`: replay-digest identity, happens-before
conflicts, liveness after drain, SLO clearance and per-workload domain
invariants.

On a violation the campaign can delta-debug the schedule down to a
minimal reproducer (:mod:`repro.faults.shrink`), serialize it into the
corpus (:mod:`repro.faults.corpus`) where it becomes a permanent
``fuzz-reg-<id>`` regression workload, and — for replay violations —
name the first divergent epoch of the run identity's journal chain
(:func:`repro.obs.divergence.compare_digests`).

Everything is a pure function of ``(campaign seed, workload seed)``:
the generator draws from its own :class:`~repro.sim.RandomStreams`
(never the workload's), times sit on a 0.25 s grid, and the campaign
summary carries a digest so CI can assert two runs of ::

    python -m repro.faults.fuzz --workload partition-recovery \\
        --budget 25 --seed 7

print byte-identical reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.hb import ConflictSanitizer
from repro.analysis.replay import run_isolated, trace_digest
from repro.errors import SimulationError
from repro.faults.corpus import default_corpus_dir, make_entry, write_entry
from repro.faults.oracles import TrialEvidence, evaluate, oracle_names
from repro.faults.schedule import FaultSchedule, use_schedule_override
from repro.faults.shrink import shrink_schedule
from repro.sim import RandomStreams

#: Version tag of the campaign summary format.
CAMPAIGN_SCHEMA = "repro-fuzz-campaign/1"

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


class FuzzProfile:
    """What the fuzzer may do to one workload — and what must hold.

    ``active`` bounds generated onset times, ``heal_by`` is the latest
    allowed lift (every generated schedule is balanced by
    construction, so the liveness/recovery oracles always apply).
    ``max_ops`` caps operations per schedule.  The boolean flags enable
    the optional oracles; ``invariants`` is a tuple of
    ``(name, check(schedule, result) -> message | None)`` domain
    checks.
    """

    __slots__ = ("name", "active", "heal_by", "max_ops", "liveness",
                 "slo_clear", "conflict_free", "invariants")

    def __init__(self, name: str, active: Tuple[float, float],
                 heal_by: float, max_ops: int = 3,
                 liveness: bool = False, slo_clear: bool = False,
                 conflict_free: bool = False,
                 invariants: Tuple[Tuple[str, Callable[..., Any]], ...] = ()
                 ) -> None:
        if active[0] >= active[1]:
            raise SimulationError("active window must be non-empty")
        if heal_by < active[0] + MIN_DURATION:
            raise SimulationError(
                "heal_by leaves no room for a minimum-length fault")
        self.name = name
        self.active = active
        self.heal_by = heal_by
        self.max_ops = max_ops
        self.liveness = liveness
        self.slo_clear = slo_clear
        self.conflict_free = conflict_free
        self.invariants = invariants

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
#: the active window, lifts before the drain) and the oracles *fair*.
PROFILES: Dict[str, FuzzProfile] = {
    "partition-recovery": FuzzProfile(
        "partition-recovery", active=(2.0, 30.0), heal_by=36.0,
        max_ops=3, slo_clear=True, conflict_free=True,
        invariants=(("view-recovers", _view_recovers),)),
    "flaky-links": FuzzProfile(
        "flaky-links", active=(2.0, 30.0), heal_by=34.0,
        max_ops=3, liveness=True),
    "fuzz-probe": FuzzProfile(
        "fuzz-probe", active=(1.0, 14.0), heal_by=16.0,
        max_ops=4, liveness=True),
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
    draw sequence, which is what lets the replay oracle compare a
    generating run against a fixed-schedule run.

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


def _run_once(name: str, seed: int
              ) -> Tuple[Dict[str, Any], Dict[str, int], str]:
    """One isolated run: (result, conflict counts, result digest)."""
    sanitizer = ConflictSanitizer()
    result = run_isolated(name, seed, sanitizer=sanitizer)
    return result, sanitizer.conflict_counts(), trace_digest(result)


def _fixed_factory(schedule_dict: Dict[str, Any]
                   ) -> Callable[..., FaultSchedule]:
    """An override factory that always yields the given schedule."""
    def factory(network: Any, schedule: FaultSchedule) -> FaultSchedule:
        return FaultSchedule.from_dict(schedule_dict)
    return factory


def evaluate_schedule(name: str, seed: int,
                      schedule_dict: Dict[str, Any],
                      runs: int = 2) -> Dict[str, Any]:
    """Run ``name`` under a fixed schedule and apply the oracle suite.

    ``runs >= 2`` arms the replay oracle (digest identity across runs);
    ``runs=1`` is the cheap mode shrink probes use for non-replay
    oracles.  This is also the corpus regression entry point.
    """
    profile = get_profile(name)
    schedule = FaultSchedule.from_dict(schedule_dict)
    digests: List[str] = []
    first: Optional[Dict[str, Any]] = None
    conflicts: Dict[str, int] = {}
    with use_schedule_override(_fixed_factory(schedule_dict)):
        for _ in range(max(1, runs)):
            result, conflict_counts, digest = _run_once(name, seed)
            digests.append(digest)
            if first is None:
                first = result
                conflicts = conflict_counts
    evidence = TrialEvidence(profile, schedule, first or {},
                             conflicts, digests)
    violations = evaluate(evidence)
    return {"workload": name, "seed": seed, "digests": digests,
            "violations": violations,
            "oracles": oracle_names(violations)}


def run_trial(name: str, seed: int, generator: ScheduleGenerator
              ) -> Dict[str, Any]:
    """One fuzz trial: generate, replay, judge.

    Run 1 installs a *generating* override — the schedule is sampled
    inside the run, against the live topology.  Run 2 replays the
    captured schedule through a fixed override.  Matching digests plus
    a clean oracle suite means the trial passes.
    """
    profile = generator.profile
    captured: Dict[str, FaultSchedule] = {}

    def generating(network: Any, schedule: FaultSchedule) -> FaultSchedule:
        generated = generator.generate(network)
        captured["schedule"] = generated
        return generated

    with use_schedule_override(generating):
        result, conflicts, first_digest = _run_once(name, seed)
    if "schedule" not in captured:
        raise SimulationError(
            "workload {!r} never built a FaultInjector; nothing to "
            "fuzz".format(name))
    schedule_dict = captured["schedule"].to_dict()
    with use_schedule_override(_fixed_factory(schedule_dict)):
        _, _, second_digest = _run_once(name, seed)
    evidence = TrialEvidence(profile,
                             FaultSchedule.from_dict(schedule_dict),
                             result, conflicts,
                             [first_digest, second_digest])
    violations = evaluate(evidence)
    return {"workload": name, "seed": seed,
            "schedule": schedule_dict,
            "digests": [first_digest, second_digest],
            "violations": violations,
            "oracles": oracle_names(violations)}


def _shrink_test(name: str, seed: int, target: str
                 ) -> Callable[[List[Dict[str, Any]]], bool]:
    """"Still fails the same way": the shrinker's probe predicate."""
    runs = 2 if target == "replay" else 1

    def test(events: List[Dict[str, Any]]) -> bool:
        try:
            report = evaluate_schedule(name, seed, {"events": events},
                                       runs=runs)
        except Exception:  # noqa: BLE001 - invalid candidate == no repro
            return False
        return target in report["oracles"]

    return test


def _localize_replay(name: str, seed: int,
                     schedule_dict: Dict[str, Any]) -> Dict[str, Any]:
    """First divergent journal epoch for a replay violation.

    Both runs are journalled by the recorder ``run_digest`` uses
    (:func:`repro.analysis.replay.journal`).  Uses the *fixed* factory:
    the flight recorder journals RNG draws, and the generator stream
    must not appear in one run but not the other.  Imported lazily —
    campaigns without replay failures never touch the recorder.
    """
    from repro.obs.divergence import compare_digests

    with use_schedule_override(_fixed_factory(schedule_dict)):
        report = compare_digests(name, seed)
    return {"diverged": report["diverged"],
            "epoch": report.get("epoch"),
            "epochs": list(report["epochs"])}


# -- campaigns ---------------------------------------------------------------


def campaign_digest(summary: Dict[str, Any]) -> str:
    """SHA-256 over the canonical summary (minus the digest itself)."""
    stripped = {key: value for key, value in summary.items()
                if key != "digest"}
    canonical = json.dumps(stripped, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_campaign(workload: str, budget: int, seed: int,
                 workload_seed: int = 31, shrink: bool = False,
                 shrink_budget: int = 400,
                 corpus_dir: Optional[str] = None,
                 max_failures: Optional[int] = None,
                 progress: Optional[Callable[[int, Dict[str, Any]],
                                             None]] = None
                 ) -> Dict[str, Any]:
    """A full fuzz campaign; returns the JSON-safe summary.

    Deterministic in ``(seed, workload_seed)``: trial ``i`` draws from
    stream ``trial-%05d`` of a campaign-private
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
        generator = ScheduleGenerator(profile, rng)
        trial = run_trial(workload, workload_seed, generator)
        trials_run += 1
        events_generated += len(trial["schedule"]["events"])
        if progress is not None:
            progress(index, trial)
        if not trial["violations"]:
            continue
        for oracle in trial["oracles"]:
            oracle_counts[oracle] = oracle_counts.get(oracle, 0) + 1
        failure: Dict[str, Any] = {
            "trial": index,
            "oracles": trial["oracles"],
            "violations": trial["violations"],
            "schedule": trial["schedule"],
            "digests": trial["digests"],
        }
        target = trial["oracles"][0]
        if "replay" in trial["oracles"]:
            failure["localization"] = _localize_replay(
                workload, workload_seed, trial["schedule"])
        if shrink:
            report = shrink_schedule(
                trial["schedule"]["events"],
                _shrink_test(workload, workload_seed, target),
                budget=shrink_budget, quantum=TIME_QUANTUM)
            failure["shrink"] = report
            minimal = {"events": report["events"]}
        else:
            minimal = trial["schedule"]
        failure["minimal"] = minimal
        if corpus_dir is not None:
            entry = make_entry(
                workload, workload_seed, target, minimal,
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
        "workload_seed": workload_seed,
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
        localization = failure.get("localization")
        if localization is not None:
            out.write("  flight epoch: {} (diverged={})\n".format(
                localization["epoch"], localization["diverged"]))
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
        description="Search generated fault schedules for oracle "
                    "violations, deterministically.")
    parser.add_argument("--workload", help="fuzz target (see --list)")
    parser.add_argument("--budget", type=int, default=25,
                        help="number of trials (default 25)")
    parser.add_argument("--seed", type=int, default=7,
                        help="campaign seed driving generation "
                             "(default 7)")
    parser.add_argument("--workload-seed", type=int, default=31,
                        help="sim seed each trial runs under "
                             "(default 31)")
    parser.add_argument("--shrink", action="store_true",
                        help="delta-debug each failing schedule to a "
                             "minimal reproducer")
    parser.add_argument("--shrink-budget", type=int, default=400,
                        help="max shrink probes per failure "
                             "(default 400)")
    parser.add_argument("--corpus", metavar="DIR", default=None,
                        help="write failing (shrunk) schedules as "
                             "corpus entries into DIR "
                             "('default' = the checked-in corpus)")
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
    try:
        get_profile(options.workload)
    except KeyError as error:
        print("error: {}".format(error.args[0]), file=sys.stderr)
        return 2
    corpus_dir = options.corpus
    if corpus_dir == "default":
        corpus_dir = default_corpus_dir()
    summary = run_campaign(
        options.workload, options.budget, options.seed,
        workload_seed=options.workload_seed, shrink=options.shrink,
        shrink_budget=options.shrink_budget, corpus_dir=corpus_dir,
        max_failures=options.max_failures)
    if options.format == "json":
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        _print_text(summary, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
