"""A run owns its observers: composed by ``run``, restored on every exit."""

import re

import pytest

from repro.__main__ import main as cli
from repro.obs.flight import FlightRecorder
from repro.obs.tracer import Tracer
from repro.run import RunSpec, run
from repro.workload.catalogue import WORKLOADS
from tests.conftest import ambient


def _crashing(seen):
    """A workload that records what it ran under, then fails inside."""
    def workload(seed):
        seen.update(ambient())
        return {}["internal-bug"]
    return workload


def test_run_restores_all_five_observers_when_the_workload_raises(
        monkeypatch):
    seen = {}
    monkeypatch.setitem(WORKLOADS, "locks-hard", _crashing(seen))
    before = ambient()
    tracer, recorder = Tracer(), FlightRecorder()

    def schedule(network, original):
        return original

    with pytest.raises(KeyError, match="internal-bug"):
        run(RunSpec("locks-hard", 31, tracer=tracer, journal=recorder,
                    schedule=schedule))
    assert seen["tracer"] is tracer
    assert seen["flight"] is recorder
    assert seen["schedule"] is schedule
    assert seen["metrics"] is not before["metrics"]
    assert seen["sanitizer"].enabled
    after = ambient()
    assert all(after[name] is before[name] for name in before), after


def test_each_run_gets_a_fresh_registry_and_sanitizer():
    first, second = (run(RunSpec("locks-hard", 31)) for _ in range(2))
    assert first.metrics is not second.metrics
    assert first.sanitizer is not second.sanitizer
    assert first.sanitizer.trace() == first.outcome["accesses"]
    assert first.digest == second.digest


# Every sub-command that takes a workload, through the one entry point.
@pytest.mark.parametrize("main, argv", [
    (cli, ["replay", "locks-hard"]),
    (cli, ["dashboard", "locks-hard"]),
    (cli, ["profile", "locks-hard"]),
    (cli, ["replay"]),
    (cli, ["fuzz", "--workload", "partition-recovery", "--budget", "1"]),
])
def test_a_crash_inside_a_workload_is_not_an_unknown_workload(monkeypatch,
                                                              main, argv):
    for name in ("locks-hard", "partition-recovery"):
        monkeypatch.setitem(WORKLOADS, name, _crashing({}))
    with pytest.raises(KeyError, match="internal-bug"):
        main(argv)


def test_help_lists_every_sub_command(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli(["--help"])
    assert exit_.value.code == 0
    listed = re.findall(r"^    (\w+)", capsys.readouterr().out, re.M)
    assert listed == ["check", "replay", "races", "fuzz", "corpus",
                      "dashboard", "profile", "list"]
