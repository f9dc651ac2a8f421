"""The experiment benches are plain pytest tests.

A ``benchmark`` fixture parameter would bring pytest-benchmark back, and
its ``pedantic`` clears ``sys.setprofile`` while the experiment runs, so
a trace of ``pytest benchmarks/`` would see none of the experiments'
own calls (DESIGN.md, "Mechanism verdicts").
"""

import glob
import importlib
import inspect
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHES = sorted(
    os.path.splitext(os.path.basename(path))[0]
    for path in glob.glob(os.path.join(ROOT, "benchmarks", "bench_*.py")))


@pytest.mark.parametrize("name", BENCHES)
def test_an_experiment_takes_no_benchmark_fixture(name):
    module = importlib.import_module("benchmarks." + name)
    tests = [function for attr, function in vars(module).items()
             if attr.startswith("test_") and inspect.isfunction(function)]
    assert tests, name + " holds no test"
    for function in tests:
        assert "benchmark" not in inspect.signature(function).parameters, \
            "{}.{} takes the benchmark fixture".format(name,
                                                       function.__name__)
