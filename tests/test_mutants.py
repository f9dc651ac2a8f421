"""The seeded-mutant table (``tests/mutants.py``) must not rot."""

import json
import os

import pytest

from tests.mutants import MUTANTS, ROOT, SMOKE, _failing_files, workloads


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
    from repro.analysis.workloads import WORKLOADS

    replay, bench = workloads(ROOT)
    assert replay == sorted(WORKLOADS)
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        declared = [entry["name"] for entry in json.load(handle)["workloads"]]
    assert bench == declared


def test_failing_files_are_read_off_the_short_summary():
    output = ("FAILED tests/net/test_carry.py::test_a - assert 1 == 2\n"
              "ERROR tests/groups/test_group.py::test_b\n"
              "FAILED tests/net/test_carry.py::test_c\n"
              "2 failed, 1 error in 3.21s\n")
    assert _failing_files(output) == ["groups/test_group.py",
                                      "net/test_carry.py"]
