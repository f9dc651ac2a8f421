"""What a seeded run costs, counted: kernel events and Python calls.

Wall time needs many interleaved pairs to tell a 5 % change from noise;
the work a seeded run does is exact.  ``cost_pins.json`` holds, for each
catalogue workload at seed 31, the events every environment it built
processed and the calls made to functions defined in each ``repro``
package (``cProfile``'s call counts, builtins left out, so the numbers
do not depend on C internals), under one Python minor version.

Counts repeat only with the collector off around the counted run (a
collection runs ``__del__``/weakref callbacks at whatever allocation
tips it) and with every module already imported (a first import runs
module bodies), and with the label cache of ``repro.obs.flight``
cleared, so a run counts its own misses.  A change that moves a count
re-pins (``python -c "from tests.analysis.test_cost import repin;
repin()"``) and declares the per-package delta, as for
``seed_digests.json``.  The pins are not a ceiling: wall time stays the
judge of speed; the counts say exactly what changed.

Beside them, ``bench`` pins the kernel events of all seven bench
workloads as the benchmark's own child process counts them at seed 31
(its ``simulated`` block's ``events``), which nothing else in tier-1
holds.  They do not depend on the Python version.  The observed faulty
RPC queues exactly the events of the plain one: observers queue
nothing.
"""

import cProfile
import collections
import gc
import importlib
import json
import os
import pkgutil
import pstats
import subprocess
import sys

import pytest

import repro
from repro.obs import flight
from repro.run import RunSpec, run
from repro.sim import Environment
from repro.workload.catalogue import WORKLOADS

SEED = 31
_PINS = os.path.join(os.path.dirname(__file__), "cost_pins.json")
_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_PYTHON = "{}.{}".format(*sys.version_info[:2])
_BENCH_CHILD = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "bench", "child.py")
#: Every workload ``bench/run.py`` registers.
BENCH_WORKLOADS = ("packet-storm", "lock-store", "edit-session",
                   "group-chat", "media-conference", "faulty-rpc",
                   "faulty-rpc-observed")


def _package(path):
    """The ``repro`` package a source file belongs to, or None."""
    if not path.startswith(_ROOT):
        return None
    head, _, rest = path[len(_ROOT):].partition(os.sep)
    return head if rest else head[:-len(".py")]


def _import_everything():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)


def count(name, seed=SEED):
    """``{"events": N, "calls": {package: N}}`` for one run."""
    _import_everything()
    flight._plain_label.cache_clear()
    built = []
    init = Environment.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    profiler = cProfile.Profile()
    collecting = gc.isenabled()
    gc.disable()
    Environment.__init__ = recording
    try:
        profiler.enable()
        try:
            run(RunSpec(name, seed))
        finally:
            profiler.disable()
    finally:
        Environment.__init__ = init
        if collecting:
            gc.enable()
    calls = collections.Counter()
    for (path, _, _), (_, number, *_) in pstats.Stats(profiler).stats.items():
        package = _package(path)
        if package is not None:
            calls[package] += number
    return {"events": sum(env.events_processed for env in built),
            "calls": dict(sorted(calls.items()))}


def measure():
    return {name: count(name) for name in sorted(WORKLOADS)}


def bench_events(name, seed=SEED):
    """Kernel events of one bench workload's full run (``bench/child.py``)."""
    result = subprocess.run(
        [sys.executable, _BENCH_CHILD, "--workload", name, "--seed",
         str(seed)], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    return json.loads(result.stdout.splitlines()[-1])["simulated"]["events"]


def repin():
    """Write what this tree counts into ``cost_pins.json``."""
    with open(_PINS, "w", encoding="utf-8") as handle:
        json.dump({"python": _PYTHON, "seed": SEED, "workloads": measure(),
                   "bench": {name: bench_events(name)
                             for name in BENCH_WORKLOADS}},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")


def delta_table(pinned, counted):
    """One line per workload and package whose count moved."""
    lines = []
    for name in sorted(set(pinned) | set(counted)):
        was, now = pinned.get(name, {}), counted.get(name, {})
        rows = [("events", was.get("events", 0), now.get("events", 0))]
        packages = set(was.get("calls", {})) | set(now.get("calls", {}))
        rows += [(package, was.get("calls", {}).get(package, 0),
                  now.get("calls", {}).get(package, 0))
                 for package in sorted(packages)]
        lines += ["{:<24} {:<14} {:>10} -> {:>10} ({:+d})".format(
            name, what, before, after, after - before)
            for what, before, after in rows if before != after]
    return "\n".join(lines)


def _pinned():
    with open(_PINS, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_workload_costs_what_is_pinned():
    pins = _pinned()
    if pins["python"] != _PYTHON:
        pytest.skip("cost pins are for Python {}; this is {}".format(
            pins["python"], _PYTHON))
    assert set(pins["workloads"]) == set(WORKLOADS)
    counted = measure()
    assert counted == pins["workloads"], \
        "counts moved (workload, what, pinned -> counted):\n" \
        + delta_table(pins["workloads"], counted)
    # A second run in the same process counts the same.
    assert count("traced-rpc") == counted["traced-rpc"]


def test_bench_workloads_queue_the_pinned_events():
    counted = {name: bench_events(name) for name in BENCH_WORKLOADS}
    assert counted == _pinned()["bench"]
    assert counted["faulty-rpc-observed"] == counted["faulty-rpc"]
