"""The fuzz corpus: shrunk reproducers as regression workloads.

Every failure the chaos-search engine finds (and shrinks) can be
serialized into a small JSON file — workload name, seed, the violated
oracle and the minimal :class:`~repro.faults.schedule.FaultSchedule` in
its ``to_dict`` form.  Files checked into the default corpus directory
(``corpus/fuzz/`` at the repo root) are auto-registered in
:data:`repro.analysis.workloads.WORKLOADS` as ``fuzz-reg-<id>``
workloads: each runs the base workload under the stored schedule and
reports whether the stored oracle still fires.  Regressions therefore
ride every existing determinism gate (replay digests, flight-recorder
on/off identity) for free, and ``python -m repro.faults.corpus verify``
asserts they still *reproduce*.

Entry IDs are content hashes, so re-finding the same minimal schedule
is idempotent and file names are stable across machines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Any, Callable, Dict, List, Optional

from repro.errors import SimulationError
from repro.faults.schedule import FaultSchedule

#: Version tag of the corpus entry format.
SCHEMA = "repro-fuzz/1"

#: Workload-name prefix for registered corpus regressions.
REGISTRY_PREFIX = "fuzz-reg-"

#: The checked-in corpus directory.
DEFAULT_DIR = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "..",
    "corpus", "fuzz"))


def entry_id(workload: str, workload_seed: int, oracle: str,
             schedule: Dict[str, Any]) -> str:
    """A stable content hash naming one reproducer."""
    canonical = json.dumps(
        {"workload": workload, "workload_seed": workload_seed,
         "oracle": oracle, "schedule": schedule},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def make_entry(workload: str, workload_seed: int, oracle: str,
               schedule: Dict[str, Any], message: str,
               campaign: Optional[Dict[str, Any]] = None
               ) -> Dict[str, Any]:
    """Build a corpus entry dict (validated, ID'd, JSON-safe)."""
    FaultSchedule.from_dict(schedule)  # validate before serializing
    schedule = json.loads(json.dumps(schedule))  # detach from caller
    entry = {
        "schema": SCHEMA,
        "id": entry_id(workload, workload_seed, oracle, schedule),
        "workload": workload,
        "workload_seed": workload_seed,
        "oracle": oracle,
        "message": message,
        "schedule": schedule,
    }
    if campaign is not None:
        entry["campaign"] = {key: campaign[key]
                             for key in sorted(campaign)}
    return entry


def write_entry(directory: str, entry: Dict[str, Any]) -> str:
    """Write ``entry`` into ``directory``; returns the file path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "fuzz-{}.json".format(entry["id"]))
    with open(path, "w") as handle:
        json.dump(entry, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_entry(path: str) -> Dict[str, Any]:
    """Load and validate one corpus file (schema + schedule)."""
    with open(path) as handle:
        entry = json.load(handle)
    if not isinstance(entry, dict) or entry.get("schema") != SCHEMA:
        raise SimulationError(
            "{}: not a {} corpus entry".format(path, SCHEMA))
    for field in ("id", "workload", "workload_seed", "oracle",
                  "schedule"):
        if field not in entry:
            raise SimulationError(
                "{}: missing field {!r}".format(path, field))
    FaultSchedule.from_dict(entry["schedule"])
    return entry


def load_corpus(directory: Optional[str] = None
                ) -> List[Dict[str, Any]]:
    """Every entry in ``directory`` (default corpus), sorted by ID."""
    directory = DEFAULT_DIR if directory is None else directory
    if not os.path.isdir(directory):
        return []
    entries = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            entries.append(load_entry(os.path.join(directory, name)))
    return sorted(entries, key=lambda entry: entry["id"])


def _replay(entry: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """The reproducer run twice at ``seed``: the first run's verdict and
    both runs' digests, which must agree."""
    # Imported at call time: the fuzz engine imports the workload
    # registry, which imports this module while building itself.
    from repro.faults.fuzz import evaluate_schedule

    first, second = (evaluate_schedule(entry["workload"], seed,
                                       entry["schedule"]) for _ in range(2))
    return {"violations": first["oracles"],
            "reproduced": entry["oracle"] in first["oracles"],
            "digests": [first["digest"], second["digest"]]}


def _make_regression(entry: Dict[str, Any]
                     ) -> Callable[..., Dict[str, Any]]:
    def regression_workload(seed: int = 31) -> Dict[str, Any]:
        replay = _replay(entry, seed)
        return {
            "workload": REGISTRY_PREFIX + entry["id"],
            "base": entry["workload"],
            "seed": seed,
            "oracle": entry["oracle"],
            "events": len(entry["schedule"]["events"]),
            "violations": replay["violations"],
            "reproduced": replay["reproduced"],
            "digests": replay["digests"],
        }

    regression_workload.__name__ = \
        "fuzz_regression_" + entry["id"].replace("-", "_")
    regression_workload.__doc__ = \
        "Corpus reproducer {} against {} (oracle {}).".format(
            entry["id"], entry["workload"], entry["oracle"])
    return regression_workload


def corpus_workloads(directory: Optional[str] = None
                     ) -> Dict[str, Callable[..., Dict[str, Any]]]:
    """``fuzz-reg-<id>`` workload functions for every corpus entry."""
    registry: Dict[str, Callable[..., Dict[str, Any]]] = {}
    for entry in load_corpus(directory):
        registry[REGISTRY_PREFIX + entry["id"]] = \
            _make_regression(entry)
    return registry


def verify_entry(entry: Dict[str, Any]) -> Dict[str, Any]:
    """Re-run one reproducer at its stored seed; a verdict record."""
    replay = _replay(entry, entry["workload_seed"])
    return {
        "id": entry["id"],
        "workload": entry["workload"],
        "oracle": entry["oracle"],
        "reproduced": replay["reproduced"],
        "deterministic": len(set(replay["digests"])) == 1,
        "violations": replay["violations"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.corpus",
        description="Re-verify the fuzz reproducer corpus.")
    parser.add_argument("command", choices=("verify",),
                        help="re-run each reproducer and assert it still "
                             "fails its oracle deterministically")
    parser.add_argument("--dir", default=None,
                        help="corpus directory (default corpus/fuzz)")
    options = parser.parse_args(argv)
    entries = load_corpus(options.dir)
    failures = 0
    for entry in entries:
        verdict = verify_entry(entry)
        ok = verdict["reproduced"] and verdict["deterministic"]
        failures += 0 if ok else 1
        print("{}  {}  {}  reproduced={} deterministic={}".format(
            "OK " if ok else "BAD", verdict["id"], verdict["oracle"],
            verdict["reproduced"], verdict["deterministic"]))
    if not entries:
        print("empty corpus: nothing to verify")
        return 0
    if failures:
        print("{} of {} reproducers no longer fail their oracle".format(
            failures, len(entries)))
        return 1
    print("all {} reproducers still reproduce".format(len(entries)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
