"""The seeded-mutant table (``tests/mutants.py``) must not rot."""

import json
import os

import pytest

from tests.mutants import (MUTANTS, ROOT, SMOKE, _failing_files, fuzz_cell,
                           fuzz_counts, fuzz_profiles, workloads)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_every_old_string_occurs_exactly_once(mutant):
    with open(os.path.join(ROOT, mutant.path), encoding="utf-8") as handle:
        source = handle.read()
    assert source.count(mutant.old) == 1, mutant.path
    assert mutant.new != mutant.old


def test_mutant_names_are_unique_and_the_smoke_names_exist():
    names = [mutant.name for mutant in MUTANTS]
    assert len(names) == len(set(names))
    assert set(SMOKE) <= set(names)


def test_the_matrix_reads_both_workload_registries():
    from repro.faults.fuzz import PROFILES
    from repro.workload.catalogue import WORKLOADS

    replay, bench = workloads(ROOT)
    assert replay == sorted(WORKLOADS)
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        declared = [entry["name"] for entry in json.load(handle)["workloads"]]
    assert bench == declared
    assert fuzz_profiles(ROOT) == sorted(PROFILES)


def test_a_fuzz_cell_names_the_counts_that_moved():
    clean = {"invariant:view-recovers": 19}
    assert fuzz_cell(dict(clean), clean) == "–"
    assert fuzz_cell({"invariant:view-recovers": 12, "liveness": 3},
                     clean) == ("invariant:view-recovers 19→12, "
                                "liveness 0→3")
    assert fuzz_cell("exit 1", clean) == "exit 1"


def test_a_campaign_without_counts_says_why(tmp_path):
    # No package at all: the campaign cannot start.
    assert fuzz_counts(str(tmp_path), "p") == "exit 1"
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    cli = package / "__main__.py"
    cli.write_text("import sys\n"
                   "print('a warning', file=sys.stderr)\n"
                   "if sys.argv[1:] == ['list']:\n"
                   "    print('b  fuzz: x\\n\\nc\\na  fuzz: y')\n"
                   "else:\n"
                   "    print('{\"oracle_counts\": {\"liveness\": 2}}')\n")
    # Only stdout is read; a blank line or an entry with no fuzz profile
    # is not a profile.
    assert fuzz_profiles(str(tmp_path)) == ["b", "a"]
    assert fuzz_counts(str(tmp_path), "p") == {"liveness": 2}
    cli.write_text("print('trials=25')\n")
    assert fuzz_counts(str(tmp_path), "p") == "no output"


def test_failing_files_are_read_off_the_short_summary():
    output = ("FAILED tests/net/test_carry.py::test_a - assert 1 == 2\n"
              "ERROR tests/groups/test_group.py::test_b\n"
              "FAILED tests/net/test_carry.py::test_c\n"
              "2 failed, 1 error in 3.21s\n")
    assert _failing_files(output, "tests") == ["groups/test_group.py",
                                               "net/test_carry.py"]
    assert _failing_files(output, "benchmarks") == []
    bench = ("FAILED benchmarks/bench_a3_digest_tradeoff.py::test_a3 - x\n"
             "1 failed, 21 passed in 4.02s\n")
    assert _failing_files(bench, "benchmarks") == [
        "bench_a3_digest_tradeoff.py"]
    assert _failing_files(bench, "tests") == []
