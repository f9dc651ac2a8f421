"""Tests for the replay checker: determinism as a testable property."""

import json
import os

import pytest

from repro.analysis.hb import NOOP_SANITIZER, get_sanitizer
from repro.faults.fuzz import PROFILES
from repro.__main__ import main
from repro.analysis.replay import replay
from repro.obs.flight import FlightRecorder, use_flight
from repro.obs.metrics import get_metrics
from repro.obs.timeline import TimelineRecorder
from repro.obs.tracer import Tracer, use_tracer
from repro.run import RunSpec, journal, run, run_digest, trace_digest
from repro.sim import Environment
from repro.workload.catalogue import WORKLOADS


def _outcome(name, seed):
    return run(RunSpec(name, seed)).outcome


def test_replay_locks_hard_is_deterministic():
    first, second, ok = replay("locks-hard", seed=31)
    assert ok
    assert first == second


def test_replay_locks_soft_is_deterministic():
    # The style with the most sanitizer activity (every conflict is
    # recorded) must still digest identically.
    assert replay("locks-soft", seed=31)[2]


def test_different_seeds_give_different_digests():
    one = trace_digest(_outcome("locks-soft", 31))
    other = trace_digest(_outcome("locks-soft", 32))
    assert one != other


def test_trace_digest_is_canonical():
    assert trace_digest({"a": 1, "b": 2}) == trace_digest({"b": 2, "a": 1})
    assert trace_digest({"a": 1}) != trace_digest({"a": 2})


def test_trace_digest_leaves_out_the_kernel_counters():
    def result(now, scheduled, processed):
        return {"completed": 3,
                "env": {"now": now, "queue_depth": 0,
                        "events_scheduled": scheduled,
                        "events_processed": processed}}

    assert trace_digest(result(1.5, 40, 40)) == \
        trace_digest(result(1.5, 22, 21))
    assert trace_digest(result(1.5, 40, 40)) != \
        trace_digest(result(2.5, 40, 40))


def test_run_restores_globals():
    metrics_before = get_metrics()
    run(RunSpec("locks-hard", 31))
    assert get_sanitizer() is NOOP_SANITIZER
    assert get_metrics() is metrics_before


def test_run_records_the_access_trace():
    result = _outcome("locks-hard", 31)
    assert result["accesses"], "sanitizer saw no accesses"
    assert result["completed"] > 0
    assert result["workload"] == "locks-hard"


def test_workload_registry_covers_all_styles():
    assert {"locks-hard", "locks-tickle", "locks-soft",
            "locks-notification"} <= set(WORKLOADS)


def test_unknown_workload_raises():
    with pytest.raises(KeyError):
        RunSpec("no-such-workload", 31)


def test_cli_ok(capsys):
    assert main(["replay", "locks-hard"]) == 0
    assert "REPLAY OK" in capsys.readouterr().out


def test_cli_unknown_workload(capsys):
    assert main(["replay", "no-such-workload"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_cli_list(capsys):
    assert main(["list"]) == 0
    assert "locks-soft" in capsys.readouterr().out


def test_cli_list_marks_the_fuzzable_entries(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == sorted(WORKLOADS)
    assert [line.split()[0] for line in lines if "  fuzz: " in line] \
        == sorted(PROFILES)


def test_cli_replays_every_entry_when_given_no_name(monkeypatch, capsys):
    for name in sorted(WORKLOADS):
        if name not in ("locks-hard", "locks-soft"):
            monkeypatch.delitem(WORKLOADS, name)
    assert main(["replay"]) == 0
    out = capsys.readouterr().out
    assert out.count("REPLAY OK") == 2
    assert "REPLAY OK: locks-hard (seed 31)" in out
    assert "REPLAY OK: locks-soft (seed 31)" in out


def test_every_registered_workload_is_digest_stable():
    # Same seed, same identity; another seed, another run.
    for name in sorted(WORKLOADS):
        first = run_digest(name, seed=31)
        assert first == run_digest(name, seed=31), \
            "workload {} is not replay-stable".format(name)
        assert first != run_digest(name, seed=32), \
            "workload {} ignores its seed".format(name)


def _journal(name, seed):
    """The journal half of :func:`run_digest`, on its own."""
    return run(RunSpec(name, seed, journal=journal())).journal \
        .epoch_digests[-1]


def test_journal_tells_seeds_apart_where_the_simulation_consumes_the_seed():
    # Every result names its seed, so the result half always differs.
    # The journal differs exactly where a draw from the seed reaches
    # behaviour: these three run fixed schedules over lossless links.
    seedless = {name for name in WORKLOADS
                if name.startswith("fuzz-reg-")}
    seedless |= {"partition-recovery", "slo-burn"}
    for name in sorted(WORKLOADS):
        assert (_journal(name, 31) == _journal(name, 32)) == \
            (name in seedless), name


def test_observers_do_not_change_a_runs_identity(monkeypatch):
    """An ambient tracer, flight recorder or timeline recorder is not a
    participant."""
    names = sorted(WORKLOADS)
    # The results with no recorder at all and under the default one,
    # which also journals every dispatch.
    results = {name: trace_digest(_outcome(name, 31)) for name in names}
    with use_flight(FlightRecorder()):
        for name in names:
            assert trace_digest(_outcome(name, 31)) == results[name], name
    # Under a tracer only the journal is compared: three results report
    # their tracer's retention counts, which an ambient tracer replaces.
    journals = {name: _journal(name, 31) for name in names}
    with use_tracer(Tracer()):
        for name in names:
            assert _journal(name, 31) == journals[name], name
    # A timeline recorder on every environment a workload creates.
    construct = Environment.__init__

    def with_timeline(env, *args, **kwargs):
        construct(env, *args, **kwargs)
        TimelineRecorder(env, resolution=0.25)

    monkeypatch.setattr(Environment, "__init__", with_timeline)
    pinned = _pinned_digests()
    for name in names:
        if name != "timeline-demo":     # owns the window hook itself
            assert run_digest(name, 31) == pinned[name], name


# -- pinned digests -------------------------------------------------------
#
# seed_digests.json holds the seed-31 run_digest of every workload; its
# "source" string says which kernel produced them.  Any drift is a
# behaviour change, not a speedup.

_PINNED = os.path.join(os.path.dirname(__file__), "seed_digests.json")


def _pinned(key):
    with open(_PINNED, encoding="utf-8") as handle:
        return json.load(handle)[key]


def _pinned_digests():
    return _pinned("digests")


def test_pinned_digest_file_covers_every_workload():
    assert set(_pinned_digests()) == set(WORKLOADS)
    assert set(_pinned("outcomes")) == set(WORKLOADS)


def test_all_workloads_match_pinned_outcomes():
    """What each run reports, without the dispatch journal: a change to
    how many events the kernel dispatches, and in which order, moves a
    run digest but must leave every outcome where it is."""
    pinned = _pinned("outcomes")
    for name in sorted(WORKLOADS):
        assert trace_digest(_outcome(name, 31)) == pinned[name], \
            "workload {} reports another outcome".format(name)


def test_all_workloads_match_pinned_digests():
    pinned = _pinned_digests()
    for name in sorted(WORKLOADS):
        assert run_digest(name, seed=31) == pinned[name], \
            "workload {} drifted".format(name)
