"""Seeded mutants: does each detector still catch what it is kept for?

A detector earns its place by a row of the detection matrix in
``docs/analysis.md`` ("What each detector catches"): a bug — one a past
PR fixed, or one seeded on purpose — re-introduced on a copy of the
tree, and the detector that fails there.  This module is that matrix as
data, and two ways to run it::

    python -m tests.mutants             # smoke: six rows, one per kind
    python -m tests.mutants --matrix    # every detector on every mutant

The smoke applies each :data:`SMOKE` mutant to a temporary copy and
requires its named detector to fail there and to pass on the clean
copy; it exits non-zero otherwise (CI: "Seeded mutants are still
caught").  ``--matrix`` prints the markdown table the doc holds,
with one budget-25 fuzz column per fuzz profile; it runs the whole
tier-1 suite once per mutant and takes about two hours on two cores.
``tests/test_mutants.py`` keeps the table from rotting: every ``old``
string must occur exactly once in its file.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple, Union

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]


def _check(passes: str) -> List[str]:
    return [sys.executable, "-m", "repro.analysis.check", "src/",
            "--passes", passes]


def _bench(workload: str) -> List[str]:
    # Exit 1 when the workload's correctness gate is violated.
    return [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", "31", "--seconds", "2", "--trace", "0"]


RACES = [sys.executable, "-m", "repro.analysis.races", "--format", "json"]


class Mutant(NamedTuple):
    name: str
    origin: str
    path: str
    old: str
    new: str


MUTANTS: Tuple[Mutant, ...] = (
    Mutant("store-get-by-equality", "PR 20 bug",
           "src/repro/sim/resources.py",
           "                item = self.items.pop(index)\n",
           "                item = self.items[index]\n"
           "                self.items.remove(item)\n"),
    Mutant("nan-capacity", "PR 20 bug",
           "src/repro/sim/resources.py",
           "                 init: float = 0.0) -> None:\n"
           "        if not capacity > 0:  # also rejects NaN\n",
           "                 init: float = 0.0) -> None:\n"
           "        if capacity <= 0:\n"),
    Mutant("self-send-begins-in-send", "PR 18 bug",
           "src/repro/net/network.py",
           "if env._active_process is not None "
           "and packet.src != packet.dst:",
           "if env._active_process is not None:"),
    Mutant("media-source-two-emitters", "PR 19 bug",
           "src/repro/streams/media.py",
           "        self._generation += 1\n",
           "        self._generation += 0\n"),
    Mutant("joiner-not-at-cut", "PR 17 bug",
           "src/repro/groups/group.py",
           "        self._start_at_cut(endpoint._ordering)\n",
           ""),
    Mutant("refused-migrate-in-escapes", "PR 21 bug",
           "src/repro/node/runtime.py",
           "            yield self.rpc.call(target_node, \"migrate_in\", "
           "snapshot,\n"
           "                                timeout=timeout, parent=span)\n"
           "        except (RpcError, CircuitOpenError) as error:\n",
           "            yield self.rpc.call(target_node, \"migrate_in\", "
           "snapshot,\n"
           "                                timeout=timeout, parent=span)\n"
           "        except RpcError as error:\n"),
    Mutant("causal-ready-ignores-others", "seeded",
           "src/repro/groups/ordering.py",
           "if time > counts.get(process, 0) and process != sender:",
           "if False:"),
    Mutant("shared-lock-always-compatible", "seeded",
           "src/repro/concurrency/locks.py",
           "            return all(h.mode == SHARED for h in holders)\n",
           "            return True\n"),
    Mutant("ot-insert-tie-ignores-a-wins", "seeded",
           "src/repro/concurrency/ot.py",
           "if a.pos < b.pos or (a.pos == b.pos and a_wins):",
           "if a.pos <= b.pos:"),
    Mutant("fcfs-grants-past-holder", "seeded",
           "src/repro/sessions/floor.py",
           "        if self.holder is None:\n"
           "            self._grant(member, event, self.env.now)\n"
           "        else:\n"
           "            self._queue.append(",
           "        if True:\n"
           "            self._grant(member, event, self.env.now)\n"
           "        else:\n"
           "            self._queue.append("),
    Mutant("rpc-timer-guard-zero-only", "seeded; equivalent",
           "src/repro/net/transport.py",
           "        if timer._value != self.call_id:\n",
           "        if self.call_id == 0:\n"),
    Mutant("fanout-iterates-set", "seeded",
           "src/repro/groups/group.py",
           "        for member in self.view.members:\n"
           "            if member == self.name:\n",
           "        for member in set(self.view.members):\n"
           "            if member == self.name:\n"),
    Mutant("fanout-via-list-of-set-helper", "seeded",
           "src/repro/groups/group.py",
           "    def _fanout(self, message: GroupMessage) -> None:\n"
           "        for member in self.view.members:\n",
           "    def _targets(self):\n"
           "        return list(set(self.view.members))\n"
           "\n"
           "    def _fanout(self, message: GroupMessage) -> None:\n"
           "        for member in self._targets():\n"),
    Mutant("fanout-via-raw-set-helper", "seeded",
           "src/repro/groups/group.py",
           "    def _fanout(self, message: GroupMessage) -> None:\n"
           "        for member in self.view.members:\n",
           "    def _targets(self):\n"
           "        return set(self.view.members)\n"
           "\n"
           "    def _fanout(self, message: GroupMessage) -> None:\n"
           "        for member in self._targets():\n"),
    Mutant("actor-forgets-to-yield", "seeded",
           "src/repro/analysis/workloads.py",
           "            yield env.timeout(EDIT_TIME)\n",
           "            env.timeout(EDIT_TIME)\n"),
    # -- CSCW invariants, one per mutant ---------------------------------
    Mutant("view-install-skips-joiner", "seeded; CSCW",
           "src/repro/groups/group.py",
           "        for endpoint in self.endpoints.values():\n"
           "            endpoint._install_view(self.view)\n",
           "        for endpoint in list(self.endpoints.values())[:-1]:\n"
           "            endpoint._install_view(self.view)\n"),
    Mutant("total-order-reuses-slots-after-leave", "seeded; CSCW",
           "src/repro/groups/group.py",
           "        remaining = tuple(m for m in self.view.members "
           "if m != host_name)\n"
           "        self._install(remaining)\n",
           "        remaining = tuple(m for m in self.view.members "
           "if m != host_name)\n"
           "        self._install(remaining)\n"
           "        if self.ordering == \"total\" and remaining:\n"
           "            self._global_seq = self.endpoints[remaining[0]]"
           "._ordering._next - 1\n"),
    Mutant("ot-delete-dropped-at-insert-tie", "seeded; CSCW",
           "src/repro/concurrency/ot.py",
           "        if a.pos < b.pos:\n"
           "            return a\n"
           "        return Delete(a.pos + 1)\n",
           "        if a.pos < b.pos:\n"
           "            return a\n"
           "        if a.pos == b.pos:\n"
           "            return Noop()\n"
           "        return Delete(a.pos + 1)\n"),
    Mutant("rr-quantum-outlives-release", "seeded; CSCW",
           "src/repro/sessions/floor.py",
           "        if self._epoch != epoch or self.holder != member:\n",
           "        if self.holder != member:\n"),
    Mutant("negotiated-right-widens-to-all", "seeded; CSCW",
           "src/repro/access/negotiation.py",
           "        role = Role(role_name).allow(req.artefact, req.right)\n",
           "        role = Role(role_name).allow(\"*\", req.right)\n"),
    Mutant("reintegration-drops-last-write", "seeded; CSCW",
           "src/repro/mobility/cache.py",
           "        for key, value, cached_version, _written_at in log:\n",
           "        for key, value, cached_version, _written_at "
           "in log[:-1]:\n"),
    Mutant("digest-keeps-delivered-events", "seeded; CSCW",
           "src/repro/awareness/digests.py",
           "            self._pending = []\n",
           ""),
    Mutant("playout-fires-before-deadline", "seeded; CSCW",
           "src/repro/streams/media.py",
           "        self.env.timeout(deadline - self.env.now, frame)",
           "        self.env.timeout((deadline - self.env.now) / 2, frame)"),
    # -- one aimed at the stated property of each fault oracle -----------
    Mutant("give-up-leaves-inflight", "seeded; liveness",
           "src/repro/net/transport.py",
           "        self._track(-1)\n"
           "        self.gave_up += 1\n",
           "        self.gave_up += 1\n"),
    Mutant("slo-alert-clears-only-on-stop", "seeded; slo-clears",
           "src/repro/obs/slo.py",
           "        if not firing and alert is not None:\n",
           "        if not firing and alert is not None and self._stopped:\n"),
    Mutant("floor-handoff-publishes-nothing", "seeded; hb-conflicts",
           "src/repro/sessions/floor.py",
           "        get_sanitizer().acquire(\"floor:\" + self.name, member)\n",
           ""),
    Mutant("schedule-dict-rounds-times", "seeded; replay",
           "src/repro/faults/schedule.py",
           "        record: Dict[str, Any] = {\"at\": self.at, "
           "\"kind\": self.kind}\n",
           "        record: Dict[str, Any] = {\"at\": round(self.at, 1), "
           "\"kind\": self.kind}\n"),
)

#: The smoke: one mutant per kind of detector that survives, and the
#: one command that must fail on it.
SMOKE: Dict[str, List[str]] = {
    # a property test against a reference model
    "store-get-by-equality": PYTEST + ["tests/sim/test_resources.py"],
    # the boundary-error suite
    "nan-capacity": PYTEST + ["tests/test_errors.py"],
    # the happens-before sanitizer's gate: hard locks leak nothing
    "shared-lock-always-compatible": RACES,
    "fanout-iterates-set": _check("lint"),
    "actor-forgets-to-yield": _check("protocol"),
    # a bench/run.py correctness gate
    "causal-ready-ignores-others": _bench("group-chat"),
}

REPLAY = [sys.executable, "-m", "repro.analysis.replay"]
FUZZ = [sys.executable, "-m", "repro.faults.fuzz"]


def _fuzz(profile: str) -> List[str]:
    """The matrix's campaign for one fuzz profile (JSON summary)."""
    return FUZZ + ["--workload", profile, "--budget", "25", "--seed", "7",
                   "--format", "json"]


def by_name(name: str) -> Mutant:
    return next(mutant for mutant in MUTANTS if mutant.name == name)


def copy_tree(destination: str) -> str:
    """A copy of what the detectors read; returns its root."""
    for entry in ("src", "tests", "bench", "benchmarks", "corpus"):
        shutil.copytree(
            os.path.join(ROOT, entry), os.path.join(destination, entry),
            ignore=shutil.ignore_patterns("__pycache__", "out"))
    # pytest's testpaths and python_files
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), destination)
    return destination


def apply(mutant: Mutant, root: str) -> None:
    path = os.path.join(root, mutant.path)
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    if source.count(mutant.old) != 1:
        raise SystemExit("{}: 'old' occurs {} times in {}".format(
            mutant.name, source.count(mutant.old), mutant.path))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(source.replace(mutant.old, mutant.new))


def run(command: Sequence[str], root: str,
        stderr: int = subprocess.STDOUT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    return subprocess.run(command, cwd=root, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=stderr,
                          timeout=900)


# -- the smoke ----------------------------------------------------------------

def smoke() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        clean = copy_tree(os.path.join(scratch, "clean"))
        for name, command in SMOKE.items():
            mutant = by_name(name)
            shown = " ".join(command[1:])
            if run(command, clean).returncode != 0:
                print("FAIL {}: `{}` fails on the clean tree".format(
                    name, shown))
                failures += 1
                continue
            root = copy_tree(os.path.join(scratch, name))
            apply(mutant, root)
            if run(command, root).returncode == 0:
                print("FAIL {}: `{}` did not catch it".format(name, shown))
                failures += 1
            else:
                print("ok   {}: caught by `{}`".format(name, shown))
            shutil.rmtree(root)
    return 1 if failures else 0


# -- the full matrix ----------------------------------------------------------

def workloads(root: str) -> Tuple[List[str], List[str]]:
    """The replay and bench workloads the tree at ``root`` registers."""
    bench = run([sys.executable, "-c",
                 "import sys; sys.path.insert(0, 'bench'); import workloads; "
                 "print('\\n'.join(workloads.WORKLOADS))"], root)
    return run(REPLAY + ["--list"], root).stdout.split(), bench.stdout.split()


def fuzz_profiles(root: str) -> List[str]:
    """The fuzz profiles the tree at ``root`` registers (the clean tree's
    list sets the matrix's columns, so a mutant cannot hide one)."""
    result = run(FUZZ + ["--list"], root, stderr=subprocess.PIPE)
    if result.returncode:
        raise SystemExit("`fuzz --list` exits {} on the clean tree:\n{}"
                         .format(result.returncode, result.stderr))
    return [line.split()[0] for line in result.stdout.splitlines()
            if line.strip()]


def fuzz_counts(root: str, profile: str) -> Union[Dict[str, int], str]:
    """One budget-25 campaign's oracle counts, or why there are none."""
    result = run(_fuzz(profile), root, stderr=subprocess.PIPE)
    if result.returncode:
        return "exit {}".format(result.returncode)
    try:
        return json.loads(result.stdout)["oracle_counts"]
    except (ValueError, KeyError, TypeError):
        return "no output"


def _failing_files(output: str) -> List[str]:
    return sorted({match.group(1) for match in re.finditer(
        r"^(?:FAILED|ERROR) tests/([\w/]+\.py)", output, re.M)})


def fuzz_cell(counts: Union[Dict[str, int], str],
              clean: Dict[str, int]) -> str:
    """The oracle counts that differ from the clean tree's, ``clean→now``."""
    if isinstance(counts, str):
        return counts
    return ", ".join(
        "{} {}→{}".format(oracle, clean.get(oracle, 0),
                          counts.get(oracle, 0))
        for oracle in sorted(set(clean) | set(counts))
        if clean.get(oracle, 0) != counts.get(oracle, 0)) or "–"


def detect(root: str, profiles: Sequence[str]) -> Dict[str, Any]:
    """Every detector, run the way CI runs it, on the tree at ``root``."""
    row: Dict[str, Any] = {}
    for name in ("lint", "protocol"):
        result = run(_check(name), root)
        row[name] = "{} finding(s)".format(
            len(re.findall(r": RPR\d{3} ", result.stdout))) \
            if result.returncode else "–"
    # The table's own tier-1 test fails on every mutated copy by design.
    result = run(PYTEST + ["-rfE", "--ignore=tests/test_mutants.py"], root)
    row["tier-1"] = ", ".join(_failing_files(result.stdout)) or (
        "–" if result.returncode == 0 else "exit {}".format(
            result.returncode))
    replay_workloads, bench_workloads = workloads(root)
    bad = [name for name in replay_workloads
           if run(REPLAY + [name, "--seed", "31"], root).returncode]
    row["replay CLI"] = ", ".join(bad) or "–"
    row["races gate"] = "fails" if run(RACES, root).returncode else "–"
    # One budget-25 campaign per profile: its oracle counts.
    for profile in profiles:
        row["fuzz " + profile] = fuzz_counts(root, profile)
    row["corpus verify"] = "fails" if run(
        [sys.executable, "-m", "repro.faults.corpus", "verify"],
        root).returncode else "–"
    bad = [name for name in bench_workloads
           if run(_bench(name), root).returncode]
    row["bench gates"] = ", ".join(bad) or "–"
    return row


def matrix() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        clean_root = copy_tree(os.path.join(scratch, "clean"))
        profiles = fuzz_profiles(clean_root)
        clean = detect(clean_root, profiles)
        fuzz_columns = ["fuzz " + profile for profile in profiles]
        for column in fuzz_columns:
            if isinstance(clean[column], str):
                raise SystemExit("`{}` gives {} on the clean tree".format(
                    column, clean[column]))
        columns = ["lint", "protocol", "tier-1", "replay CLI",
                   "races gate"] + fuzz_columns + ["corpus verify",
                                                   "bench gates"]
        print("| mutant (origin) | " + " | ".join(columns) + " |")
        print("|" + "---|" * (len(columns) + 1))

        def line(label: str, cells: Dict[str, str]) -> None:
            print("| {} | {} |".format(
                label, " | ".join(cells[column] for column in columns)),
                flush=True)

        # The clean row gives its campaigns' counts; a mutant's row
        # gives the counts that moved.
        line("*clean tree*", dict(clean, **{
            column: ", ".join("{}={}".format(oracle, count) for oracle, count
                              in sorted(clean[column].items())) or "–"
            for column in fuzz_columns}))
        for mutant in MUTANTS:
            root = copy_tree(os.path.join(scratch, mutant.name))
            apply(mutant, root)
            row = detect(root, profiles)
            line("`{}` ({})".format(mutant.name, mutant.origin), dict(row, **{
                column: fuzz_cell(row[column], clean[column])
                for column in fuzz_columns}))
            shutil.rmtree(root)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.mutants", description=__doc__.split("\n")[0])
    parser.add_argument("--matrix", action="store_true",
                        help="run every detector on every mutant and "
                             "print the markdown table (slow)")
    options = parser.parse_args(argv)
    return matrix() if options.matrix else smoke()


if __name__ == "__main__":
    sys.exit(main())
