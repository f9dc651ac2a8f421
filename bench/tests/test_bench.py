"""Self-tests of the benchmark (``python3 -m pytest bench/tests``).

Not collected by the tier-1 run (``testpaths = ["tests"]``).  Every
workload runs at a tiny ``--scale``, so the whole file takes well under
30 seconds; timings are never asserted, only structure, determinism,
the correctness gates and the accounting identities.
"""

import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import run  # noqa: E402
from layers import LAYERS  # noqa: E402
from names import END_TO_END, PER_LAYER  # noqa: E402
from repro.obs.profile import parse_folded  # noqa: E402

SCALE = 0.04
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def executions():
    """Per workload: a plain run, a traced run (same seed) and a plain
    run on another seed."""
    session = run.Session(seed=31, scale=SCALE)
    other = run.Session(seed=32, scale=SCALE)
    runs = {workload: (session.child(workload),
                       session.child(workload, profile=True),
                       other.child(workload))
            for workload in run.WORKLOAD_NAMES}
    assert session.problems == [] and other.problems == []
    return runs


def test_manifest_meets_the_contract(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert manifest["paths"] == ["bench"]
    assert manifest["command"] == ["python3", "bench/run.py"]
    assert 1 <= manifest["run_seconds"] <= 60
    runs = 4 + 22 * len(manifest["workloads"])
    assert runs * (manifest["run_seconds"] + 3) < 3420
    names = [entry["name"] for group in ("workloads", "end_to_end",
                                         "per_layer")
             for entry in manifest[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in manifest["workloads"]:
        assert set(entry) == {"name", "why"}
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200
    for entry in manifest["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 <= entry["bound"] <= 0.25
    for entry in manifest["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in manifest["end_to_end"]
    assert len(manifest["per_layer"]) <= 128


def test_manifest_lists_the_harness_vocabulary(manifest):
    assert [w["name"] for w in manifest["workloads"]] \
        == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == PER_LAYER


def test_every_workload_passes_its_gate(executions):
    for workload, (plain, traced, other) in executions.items():
        for execution in (plain, traced, other):
            assert execution["violations"] == [], workload
            assert execution["simulated"]["failed"] == 0, workload
        simulated = plain["simulated"]
        assert simulated["attempted"] >= 1
        assert simulated["latency_samples"] > 0
        assert 0 < simulated["sim_latency_p50_ms"] \
            <= simulated["sim_latency_p99_ms"]
        assert 0 < simulated["ok_ratio"] <= 1
        assert plain["setup_s"] > 0 and plain["wall_s"] > 0
        assert plain["peak_rss_mb"] > 0


def test_same_seed_same_result_other_seed_other_result(executions):
    for workload, (plain, traced, other) in executions.items():
        assert plain["digest"] == traced["digest"], workload
        assert plain["simulated"] == traced["simulated"], workload
        assert plain["counts"] == traced["counts"], workload
        assert len(plain["slices"]) == len(traced["slices"])
        assert plain["digest"] != other["digest"], workload


def test_observability_is_invisible_to_the_simulation(executions):
    plain = executions[run.PLAIN][0]
    observed = executions[run.OBSERVED][0]
    assert plain["digest"] == observed["digest"]
    assert plain["simulated"] == observed["simulated"]
    assert observed["counts"]["obs.spans"] > 0
    assert observed["counts"]["obs.flight_records"] > 0
    assert observed["counts"]["obs.timeline_windows"] > 0
    assert "obs.spans" not in plain["counts"]


def test_layer_shares_account_for_the_traced_run(executions):
    for workload, (plain, traced, _other) in executions.items():
        values = run.per_layer(plain, run.paced_wall([plain]), traced, 0.0)
        assert list(values) == [name for name, _u, _b in PER_LAYER]
        shares = sum(values[layer + ".share"] for layer in LAYERS)
        assert shares + values["trace.unattributed_share"] \
            == pytest.approx(1.0, abs=1e-9), workload
        assert shares == pytest.approx(1.0, abs=0.05), workload
        assert values["trace.unattributed_share"] <= 0.05, workload
        assert values["sim.share"] > 0.1, workload
        assert values["sim.events"] > 0


def test_workloads_exercise_the_layers_they_are_there_for(executions):
    def layers_of(workload):
        plain, traced, _other = executions[workload]
        return run.per_layer(plain, run.paced_wall([plain]), traced, 0.0)

    storm = layers_of("packet-storm")
    assert storm["net.share"] + storm["sim.share"] >= 0.85
    assert storm["net.send_us"] > 0
    locks = layers_of("lock-store")
    assert locks["net.share"] == 0 and locks["net.packets_sent"] == 0
    assert locks["concurrency.share"] >= 0.15
    assert locks["concurrency.lock_takeovers"] > 0
    assert layers_of("edit-session")["concurrency.share"] >= 0.15
    assert layers_of("edit-session")["concurrency.ot_xforms_per_op"] > 0
    chat = layers_of("group-chat")
    assert chat["groups.share"] >= 0.15
    assert 0 < chat["groups.holdback_ratio"] < 1
    media = layers_of("media-conference")
    for layer in ("streams", "sessions", "qos", "awareness"):
        assert media[layer + ".share"] > 0, layer
    assert media["streams.frames_played"] == media["streams.frames_sent"]
    plain, observed = layers_of(run.PLAIN), layers_of(run.OBSERVED)
    assert observed["obs.share"] >= 2 * plain["obs.share"]
    assert plain["faults.injected"] > 0
    assert plain["node.invoke_errors"] > 0
    for workload in run.WORKLOAD_NAMES[:5]:
        quiet = layers_of(workload)
        assert quiet["faults.injected"] == 0
        assert quiet["net.packets_dropped"] == 0


def test_folded_stacks_round_trip(executions, tmp_path):
    traced = executions["group-chat"][1]
    path = tmp_path / "group-chat.folded"
    path.write_text("".join(line + "\n"
                            for line in traced["traced"]["folded"]))
    weights = parse_folded(str(path))
    assert len(weights) == len(traced["traced"]["folded"])
    assert any(stack.startswith("repro.groups;groups.")
               for stack in weights)
    total = sum(traced["traced"]["self_s"].values())
    assert sum(weights.values()) / 1e6 == pytest.approx(total, rel=0.01)


def test_wall_takes_each_slice_at_its_fastest_at_reference_pace():
    slow = 2 * run.REFERENCE_SPIN
    reps = [{"slices": [1.0, 5.0, 2.0], "spins": [slow] * 3},
            {"slices": [3.0, 1.0, 2.5], "spins": [slow, slow, 9.0]}]
    assert run.quiet_wall(reps) == 4.0
    assert run.host_pace(reps) == 2.0
    assert run.paced_wall(reps) == 2.0


def _drive(argv):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py")] + argv,
        stdout=subprocess.PIPE, cwd=ROOT, timeout=120)
    lines = done.stdout.decode("utf-8").strip().splitlines()
    return done.returncode, lines


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"),
                                          (1, "per_layer")])
def test_driver_protocol(manifest, trace, group):
    code, lines = _drive(["--workload", "faulty-rpc-observed",
                          "--seed", "7", "--seconds", "0.1",
                          "--trace", str(trace), "--scale", str(SCALE)])
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in manifest[group]}
    assert {name: cell["unit"]
            for name, cell in result["metrics"].items()} == expected
    assert all(isinstance(cell["value"], (int, float))
               for cell in result["metrics"].values())
    # Every metric is also printed by name, with its unit.
    printed = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert re.search(r"^\s+{}\s+\S+ {}".format(
            re.escape(name), re.escape(unit)), printed, re.M), name


def test_no_result_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lock-store",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
        timeout=60)
    assert done.returncode != 0
    assert done.stdout == b""


def _entry(wall, low, high, p50=5.0, ok=1.0, failed=0):
    rows = {name: {"value": 1.0, "low": 1.0, "high": 1.0}
            for name, *_rest in END_TO_END}
    rows["wall_s"] = {"value": wall, "low": low, "high": high}
    rows["sim_latency_p50_ms"] = {"value": p50, "low": p50, "high": p50}
    rows["ok_ratio"] = {"value": ok, "low": ok, "high": ok}
    return {"workloads": {"w": {"end_to_end": rows, "failed": failed}}}


def _verdicts(old, new):
    rows, failures = compare.compare(old, new)
    return {row[1]: row[-1] for row in rows}, failures


def test_compare_verdicts():
    base = _entry(1.0, 0.98, 1.05)
    words, failures = _verdicts(base, _entry(1.05, 1.0, 1.1))
    assert words["wall_s"] == "same" and not failures
    words, failures = _verdicts(base, _entry(1.3, 1.25, 1.4))
    assert words["wall_s"] == "worse" and failures
    words, failures = _verdicts(base, _entry(0.7, 0.68, 0.75))
    assert words["wall_s"] == "better" and not failures
    words, failures = _verdicts(base, _entry(1.3, 1.0, 1.6))
    assert words["wall_s"] == "unresolved" and not failures
    # Simulated metrics repeat exactly: any change is real.
    words, failures = _verdicts(base, _entry(1.0, 0.98, 1.05, p50=5.001))
    assert words["sim_latency_p50_ms"] == "worse" and failures
    words, failures = _verdicts(base, _entry(1.0, 0.98, 1.05, ok=0.99))
    assert words["ok_ratio"] == "worse" and failures
    _words, failures = _verdicts(base, _entry(1.0, 0.98, 1.05, failed=3))
    assert any("failed operations rose" in line for line in failures)


def _noisy_reps(rng, slowdown):
    """Seven repetitions of 100 slices of 10 ms on a host that doubles
    the cost of a random stretch (up to 60 %) of every repetition."""
    reps = []
    for _ in range(7):
        length = rng.randrange(60)
        start = rng.randrange(100 - length)
        reps.append({
            "slices": [0.010 * slowdown
                       * (2.0 if start <= index < start + length else 1.0)
                       for index in range(100)],
            "spins": [run.REFERENCE_SPIN] * 100,
            "setup_s": 0.2, "peak_rss_mb": 30.0, "ops_ok": 1000,
            "simulated": {"sim_latency_p50_ms": 5.0,
                          "sim_latency_p99_ms": 9.0, "ok_ratio": 1.0}})
    return reps


def test_compare_sees_a_regression_the_raw_repetitions_hide():
    rng = random.Random(11)
    old, new = _noisy_reps(rng, 1.0), _noisy_reps(rng, 1.3)
    raw = [statistics.quantiles([sum(rep["slices"]) for rep in reps], n=4)
           for reps in (old, new)]
    assert raw[1][0] < raw[0][2]    # whole repetitions: the ranges overlap
    tables = [run.end_to_end(reps) for reps in (old, new)]
    for table, (q1, _median, _q3) in zip(tables, raw):
        row = table["wall_s"]
        assert row["low"] <= row["value"] <= row["high"] < q1
    results = [{"workloads": {"w": {"end_to_end": table, "failed": 0}}}
               for table in tables]
    words, failures = _verdicts(results[0], results[1])
    assert words["wall_s"] == "worse" and words["ops_per_s"] == "worse"
    assert words["setup_s"] == "same" and len(failures) == 2
    words, failures = _verdicts(results[0], results[0])
    assert set(words.values()) == {"same"} and not failures


def test_suite_writes_a_comparable_result(tmp_path):
    out = tmp_path / "result.json"
    session = run.Session(seed=31, scale=SCALE)
    run.suite(session, ["lock-store", run.PLAIN, run.OBSERVED], 2, str(out))
    assert session.problems == []
    document = compare.load(str(out))
    assert document["correct"] is True
    entry = document["workloads"][run.OBSERVED]
    assert entry["per_layer"]["obs.overhead_ratio"] > 1.0
    assert entry["reps"] == entry["end_to_end"]["wall_s"]["n"] == 2
    assert entry["pace"] > 0
    assert compare.main([str(out), str(out)]) == 0
