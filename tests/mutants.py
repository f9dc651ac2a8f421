"""Seeded mutants: does each detector still catch what it is kept for?

A detector earns its place by a row of the detection matrix in
``docs/analysis.md`` ("What each detector catches"): a bug — one a past
PR fixed, or one seeded on purpose — re-introduced on a copy of the
tree, and the detector that fails there.  This module is that matrix as
data, and two ways to run it::

    python -m tests.mutants             # smoke: eight rows, one per kind
    python -m tests.mutants --matrix    # every detector on every mutant

The smoke applies each :data:`SMOKE` mutant to a temporary copy and
requires its named detector to fail there and to pass on the clean
copy; it exits non-zero otherwise (CI: "Seeded mutants are still
caught").  ``--matrix`` prints the markdown table the doc holds,
with one budget-25 fuzz column per fuzz profile; it runs the whole
tier-1 suite and the experiment benches once per mutant and takes
about two hours on two cores.
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
REPRO = [sys.executable, "-m", "repro"]


def _check(passes: str) -> List[str]:
    return REPRO + ["check", "src/", "--passes", passes]


def _bench(workload: str) -> List[str]:
    # Exit 1 when the workload's correctness gate is violated.
    return [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", "31", "--seconds", "2", "--trace", "0"]


RACES = REPRO + ["races", "--format", "json"]


class Mutant(NamedTuple):
    name: str
    origin: str
    path: str
    old: str
    new: str


MUTANTS: Tuple[Mutant, ...] = (
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
           "                                timeout=MIGRATION_TIMEOUT, "
           "parent=span)\n"
           "        except (RpcError, CircuitOpenError) as error:\n",
           "            yield self.rpc.call(target_node, \"migrate_in\", "
           "snapshot,\n"
           "                                timeout=MIGRATION_TIMEOUT, "
           "parent=span)\n"
           "        except RpcError as error:\n"),
    Mutant("causal-ready-ignores-others", "seeded",
           "src/repro/groups/ordering.py",
           "if time > counts.get(process, 0) and process != sender:",
           "if False:"),
    Mutant("shared-lock-always-compatible", "seeded",
           "src/repro/concurrency/locks.py",
           "                if holder.mode != SHARED:\n",
           "                if False:\n"),
    Mutant("ot-insert-tie-ignores-a-wins", "seeded",
           "src/repro/concurrency/ot.py",
           "            if a.pos < b.pos or (a.pos == b.pos and a_wins):\n"
           "                return a\n"
           "            return _insert_at(a.pos + 1, a.char)\n",
           "            if a.pos <= b.pos:\n"
           "                return a\n"
           "            return _insert_at(a.pos + 1, a.char)\n"),
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
           "src/repro/workload/locks.py",
           "            yield env.timeout(EDIT_TIME)\n",
           "            env.timeout(EDIT_TIME)\n"),
    # -- CSCW invariants, one per mutant ---------------------------------
    Mutant("view-install-skips-joiner", "seeded; CSCW",
           "src/repro/groups/group.py",
           "        for endpoint in self.endpoints.values():\n"
           "            endpoint.view = self.view\n",
           "        for endpoint in list(self.endpoints.values())[:-1]:\n"
           "            endpoint.view = self.view\n"),
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
           "            if a.pos < b.pos:\n"
           "                return a\n"
           "            return _delete_at(a.pos + 1)\n",
           "            if a.pos < b.pos:\n"
           "                return a\n"
           "            if a.pos == b.pos:\n"
           "                return Noop()\n"
           "            return _delete_at(a.pos + 1)\n"),
    Mutant("ot-client-applies-out-of-order", "seeded; CSCW",
           "src/repro/concurrency/ot.py",
           "        if message[\"rev\"] > self.core.revision + 1:\n",
           "        if False:\n"),
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
           "        while log:\n",
           "        del log[-1:]\n        while log:\n"),
    Mutant("reintegration-forgets-unsent-suffix", "seeded; CSCW",
           "src/repro/mobility/cache.py",
           "        log = self._replay_log\n",
           "        log, self._replay_log = self._replay_log, []\n"),
    Mutant("store-server-reapplies-repeated-op", "seeded; CSCW",
           "src/repro/mobility/cache.py",
           "        answer = self._answers.get((caller, op))\n",
           "        answer = None\n"),
    Mutant("digest-keeps-delivered-events", "seeded; CSCW",
           "src/repro/awareness/digests.py",
           "            self._pending = []\n",
           ""),
    Mutant("awareness-ignores-dropped-packet", "seeded; CSCW",
           "src/repro/awareness/events.py",
           "                sender.send(at, (event, deliveries), "
           "EVENT_SIZE, self.port)\n",
           "                self._on_packet(Packet(sender.name, at, "
           "(event, deliveries)))\n"),
    Mutant("display-paints-at-send", "seeded; CSCW",
           "src/repro/sessions/sharing.py",
           "            self.host.send(viewer, (self._paint, viewer, output, "
           "member, done),\n"
           "                           self.display_size, SHARING_PORT)\n",
           "            self._paint(viewer, output, member, done)\n"),
    Mutant("playout-fires-before-deadline", "seeded; CSCW",
           "src/repro/streams/media.py",
           "        self.env.timeout(deadline - self.env.now, frame)",
           "        self.env.timeout((deadline - self.env.now) / 2, frame)"),
    # -- one per §3 mechanism kept by an experiment bench ----------------
    Mutant("glance-ignores-accessibility", "seeded; M1",
           "src/repro/spaces/mediaspace.py",
           "        if node.accessibility != ACCESSIBLE:\n",
           "        if False:\n"),
    Mutant("stale-edit-overwrites", "seeded; Q1",
           "src/repro/hypertext/network.py",
           "        if base_version == node.version:\n",
           "        if True:\n"),
    Mutant("awareness-beyond-focus-and-nimbus", "seeded; A1",
           "src/repro/awareness/spatial.py",
           "            return PERIPHERAL\n        return NONE\n",
           "            return PERIPHERAL\n        return PERIPHERAL\n"),
    Mutant("procedure-modes-swapped", "seeded; A2",
           "src/repro/workflow/procedures.py",
           "            if self.mode == STRICT:\n",
           "            if self.mode == TOLERANT:\n"),
    Mutant("tickle-ignores-grace", "seeded; A4",
           "src/repro/concurrency/locks.py",
           "now - h.last_activity >= self.tickle_grace",
           "now - h.last_activity >= 0"),
    Mutant("free-lock-decided-past-a-holder", "seeded; decided grant",
           "src/repro/concurrency/locks.py",
           "                or self._compatible(key, owner, mode)):\n",
           "                or True):\n"),
    Mutant("hand-over-clears-active-process", "seeded; hand-over",
           "src/repro/sim/events.py",
           "        env._active_process = outer\n",
           "        env._active_process = None\n"),
    Mutant("batch-ignores-urgent", "seeded; pointer tick",
           "src/repro/sim/environment.py",
           "                if queue and queue[0][1] < ahead "
           "and queue[0][0] == self._at:\n",
           "                if False:\n"),
    Mutant("aware-update-ignores-view", "seeded; A5",
           "src/repro/sessions/sharing.py",
           "(self.env.now, key, self._views[viewer](viewer, key, value)))",
           "(self.env.now, key, value))"),
    Mutant("ot-server-skips-first-concurrent-batch", "seeded; E1",
           "src/repro/concurrency/ot.py",
           "        for other_site, other_ops in self.history[base_rev:]:\n",
           "        for other_site, other_ops in "
           "self.history[base_rev + 1:]:\n"),
    Mutant("lock-units-stop-at-span-start", "seeded; E2",
           "src/repro/concurrency/granularity.py",
           "for unit in range(first, last + 1)]",
           "for unit in range(first, first + 1)]"),
    Mutant("notify-skips-readers", "seeded; E3",
           "src/repro/concurrency/locks.py",
           "            if grant.mode == SHARED and grant.owner != writer:\n",
           "            if grant.mode == SHARED and grant.owner == writer:\n"),
    Mutant("group-read-skips-uncommitted", "seeded; E4",
           "src/repro/concurrency/txgroups.py",
           "        if key in self._uncommitted:\n"
           "            return self._uncommitted[key][0]\n",
           ""),
    Mutant("placement-minimises-best-member", "seeded; E6",
           "src/repro/management/placement.py",
           "            worst = max(worst, latency)\n",
           "            worst = min(worst, latency)\n"),
    Mutant("object-rights-read-at-root-only", "seeded; E5",
           "src/repro/access/shen_dewan.py",
           "            for o in self.objects.chain(obj):\n",
           "            for o in self.objects.chain(obj)[-1:]:\n"),
    Mutant("reserved-stream-sent-best-effort", "seeded; E7",
           "src/repro/streams/binding.py",
           "        if self.contract is not None and self.contract.is_active:\n",
           "        if False:\n"),
    Mutant("sync-adjusts-slave-to-itself", "seeded; E8",
           "src/repro/streams/sync.py",
           "self.slave.sync_adjust(self.master.position)",
           "self.slave.sync_adjust(self.slave.position)"),
    Mutant("multicast-tree-repeats-shared-links", "seeded; E9",
           "src/repro/net/multicast.py",
           "                if nxt not in branch:\n",
           "                if True:\n"),
    Mutant("carrier-loss-ignores-impairment", "seeded; carry model",
           "src/repro/net/network.py",
           "            probability = link.loss + link._extra_loss\n",
           "            probability = link.loss\n"),
    Mutant("fast-hop-ignores-busy-channel", "seeded; one-event hop",
           "src/repro/net/network.py",
           "        if channel.busy_until > now:\n",
           "        if False:\n"),
    Mutant("booking-is-never-overtaken", "seeded; booking timeline",
           "src/repro/net/link.py",
           "        while at and booked[at - 1].priority > "
           "claim.priority \\\n",
           "        while False and booked[at - 1].priority > "
           "claim.priority \\\n"),
    Mutant("retimed-booking-keeps-its-instant", "seeded; booking timeline",
           "src/repro/net/network.py",
           "                booking.callbacks = _DEFER\n",
           "                pass\n"),
    Mutant("hop-record-stamps-claim-as-tx-start", "seeded; hop records",
           "src/repro/obs/tracer.py",
           "                  code, 0, sampled)\n        return row\n",
           "                  code, 0, sampled)\n"
           "        self.txs[pos] = at\n        return row\n"),
    Mutant("shared-attributes-written-in-place", "seeded; shared sets",
           "src/repro/obs/span.py",
           "        attributes = {**self.attributes, key: value}\n",
           "        attributes = self.attributes\n"
           "        attributes[key] = value\n"),
    Mutant("finished-span-end-not-written", "seeded; column rows",
           "src/repro/obs/span.py",
           "                else:\n"
           "                    log.ends[self._row - log.base] = at\n",
           "                else:\n"
           "                    pass\n"),
    # -- one aimed at the stated property of each fault oracle -----------
    Mutant("give-up-leaves-inflight", "seeded; liveness",
           "src/repro/net/transport.py",
           "        channel._track(-1)\n"
           "        channel.gave_up += 1\n",
           "        channel.gave_up += 1\n"),
    Mutant("slo-alert-clears-only-on-stop", "seeded; slo-clears",
           "src/repro/obs/slo.py",
           "        if not firing and alert is not None:\n",
           "        if not firing and alert is not None and self._stopped:\n"),
    Mutant("floor-handoff-publishes-nothing", "seeded; hb-conflicts",
           "src/repro/sessions/floor.py",
           "        if sanitizer.enabled:\n"
           "            sanitizer.acquire(\"floor:\" + self.name, member)\n",
           ""),
    Mutant("lock-sanitizer-gate-drops-acquire", "seeded; hb-conflicts",
           "src/repro/concurrency/locks.py",
           "        if sanitizer.enabled:\n"
           "            sanitizer.acquire(\"lock:\" + key, owner)\n",
           ""),
    Mutant("suspicion-is-never-lifted", "seeded; view-recovers",
           "src/repro/groups/failure.py",
           "            if self.on_return is not None:\n"
           "                self.on_return(member)\n",
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
    "ot-insert-tie-ignores-a-wins": PYTEST + [
        "tests/concurrency/test_ot_model.py"],
    # the happens-before sanitizer's gate: hard locks leak nothing
    "shared-lock-always-compatible": RACES,
    "fanout-iterates-set": _check("lint"),
    "actor-forgets-to-yield": _check("protocol"),
    # a bench/run.py correctness gate
    "causal-ready-ignores-others": _bench("group-chat"),
    # an experiment bench's declared claim
    "digest-keeps-delivered-events": PYTEST + [
        "benchmarks/bench_a3_digest_tradeoff.py"],
    # a protocol test no bench gate reaches: only a jittery WAN reorders
    "ot-client-applies-out-of-order": PYTEST + [
        "tests/concurrency/test_ot.py"],
    # a fixed fuzz reproducer in the corpus fails its oracle again
    "suspicion-is-never-lifted": REPRO + ["corpus"],
}

def _fuzz(profile: str) -> List[str]:
    """The matrix's campaign for one fuzz profile (JSON summary)."""
    return REPRO + ["fuzz", "--workload", profile, "--budget", "25",
                    "--seed", "7", "--format", "json"]


def by_name(name: str) -> Mutant:
    return next(mutant for mutant in MUTANTS if mutant.name == name)


def copy_tree(destination: str) -> str:
    """A copy of what the detectors read; returns its root."""
    # docs/, examples/, .github/ and the two records are what the rows of
    # tests/test_guards.py cite and scan; pyproject.toml holds pytest's
    # testpaths and python_files.
    for entry in ("src", "tests", "bench", "benchmarks", "corpus", "docs",
                  "examples", ".github"):
        shutil.copytree(
            os.path.join(ROOT, entry), os.path.join(destination, entry),
            ignore=shutil.ignore_patterns("__pycache__", "out"))
    for entry in ("pyproject.toml", "BENCHMARK.json", "DESIGN.md",
                  "EXPERIMENTS.md"):
        shutil.copy(os.path.join(ROOT, entry), destination)
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
    """The catalogue and bench workloads the tree at ``root`` registers."""
    bench = run([sys.executable, "-c",
                 "import sys; sys.path.insert(0, 'bench'); import workloads; "
                 "print('\\n'.join(workloads.WORKLOADS))"], root)
    catalogue = run(REPRO + ["list"], root, stderr=subprocess.PIPE)
    return [line.split()[0] for line in catalogue.stdout.splitlines()
            if line.strip()], bench.stdout.split()


def fuzz_profiles(root: str) -> List[str]:
    """The fuzz profiles the tree at ``root`` registers: the entries
    ``list`` marks fuzzable (the clean tree's list sets the matrix's
    columns, so a mutant cannot hide one)."""
    result = run(REPRO + ["list"], root, stderr=subprocess.PIPE)
    if result.returncode:
        raise SystemExit("`list` exits {} on the clean tree:\n{}"
                         .format(result.returncode, result.stderr))
    return [line.split()[0] for line in result.stdout.splitlines()
            if "  fuzz: " in line]


def fuzz_counts(root: str, profile: str) -> Union[Dict[str, int], str]:
    """One budget-25 campaign's oracle counts, or why there are none."""
    result = run(_fuzz(profile), root, stderr=subprocess.PIPE)
    if result.returncode:
        return "exit {}".format(result.returncode)
    try:
        return json.loads(result.stdout)["oracle_counts"]
    except (ValueError, KeyError, TypeError):
        return "no output"


def _failing_files(output: str, directory: str) -> List[str]:
    return sorted({match.group(1) for match in re.finditer(
        r"^(?:FAILED|ERROR) " + directory + r"/([\w/]+\.py)", output,
        re.M)})


def _pytest_cell(root: str, target: str, *options: str) -> str:
    """The files a pytest run over ``target`` fails in, or its exit."""
    result = run(PYTEST + ["-rfE", *options, target], root)
    return ", ".join(_failing_files(result.stdout, target)) or (
        "–" if result.returncode == 0 else "exit {}".format(
            result.returncode))


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
    row["tier-1"] = _pytest_cell(root, "tests",
                                 "--ignore=tests/test_mutants.py")
    # The reference-model drivers once more, their ties in seeded random
    # orders (tests/counting.py ShuffledEnvironment).
    row["tie shuffle"] = _pytest_cell(root, "tests", "-k", "ties_in_any_order")
    # CI's "Run the experiment benches": each asserts a declared claim.
    row["experiments"] = _pytest_cell(root, "benchmarks")
    replay_workloads, bench_workloads = workloads(root)
    bad = [name for name in replay_workloads
           if run(REPRO + ["replay", name, "--seed", "31"], root).returncode]
    row["replay CLI"] = ", ".join(bad) or "–"
    row["races gate"] = "fails" if run(RACES, root).returncode else "–"
    # One budget-25 campaign per profile: its oracle counts.
    for profile in profiles:
        row["fuzz " + profile] = fuzz_counts(root, profile)
    row["corpus verify"] = "fails" if run(
        REPRO + ["corpus"], root).returncode else "–"
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
        columns = ["lint", "protocol", "tier-1", "tie shuffle", "experiments",
                   "replay CLI", "races gate"] + fuzz_columns + [
                       "corpus verify", "bench gates"]
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
