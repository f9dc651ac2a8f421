"""Replay checker: "the sim is deterministic" as a testable property.

The CLI runs a workload twice, each a fresh :func:`repro.run.run` under
its own journal, and compares the run identities
(:attr:`repro.run.Result.digest`: the outcome and the flight journal,
without the kernel's own event counts).  A hidden wall-clock read or a
foreign RNG shows up as a digest mismatch; hash-order dependence does
not, because both runs share one process and so one
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
import sys
from typing import Tuple

from repro.analysis.workloads import WORKLOADS
from repro.run import RunSpec, journal, run, run_digest


def replay(name: str, seed: int = 31) -> Tuple[str, str, bool]:
    """Run ``name`` twice with ``seed``; returns (digest1, digest2, ok)."""
    first, second = run_digest(name, seed), run_digest(name, seed)
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
        specs = [RunSpec(name, each, journal=journal())
                 for each in (seed, seed2)]
    except KeyError as error:
        print("error: {}".format(error.args[0]), file=sys.stderr)
        return 2
    first, second = (run(spec).digest for spec in specs)
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
