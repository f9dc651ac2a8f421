"""Tests for the replay checker: determinism as a testable property."""

import json
import os

import pytest

from repro.analysis.hb import NOOP_SANITIZER, get_sanitizer
from repro.analysis.replay import (
    journal,
    journalled,
    main,
    replay,
    run_digest,
    run_isolated,
    trace_digest,
)
from repro.analysis.workloads import WORKLOADS, run_workload
from repro.obs.flight import FlightRecorder, use_flight
from repro.obs.metrics import get_metrics
from repro.obs.timeline import TimelineRecorder
from repro.obs.tracer import Tracer, use_tracer
from repro.sim import Environment


def test_replay_locks_hard_is_deterministic():
    first, second, ok = replay("locks-hard", seed=31)
    assert ok
    assert first == second


def test_replay_locks_soft_is_deterministic():
    # The style with the most sanitizer activity (every conflict is
    # recorded) must still digest identically.
    assert replay("locks-soft", seed=31)[2]


def test_different_seeds_give_different_digests():
    one = trace_digest(run_isolated("locks-soft", seed=31))
    other = trace_digest(run_isolated("locks-soft", seed=32))
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


def test_run_isolated_restores_globals():
    metrics_before = get_metrics()
    run_isolated("locks-hard", seed=31)
    assert get_sanitizer() is NOOP_SANITIZER
    assert get_metrics() is metrics_before


def test_run_isolated_records_the_access_trace():
    result = run_isolated("locks-hard", seed=31)
    assert result["accesses"], "sanitizer saw no accesses"
    assert result["completed"] > 0
    assert result["workload"] == "locks-hard"


def test_workload_registry_covers_all_styles():
    assert {"locks-hard", "locks-tickle", "locks-soft",
            "locks-notification"} <= set(WORKLOADS)


def test_unknown_workload_raises():
    with pytest.raises(KeyError):
        run_workload("no-such-workload")


def test_cli_ok(capsys):
    assert main(["locks-hard"]) == 0
    assert "REPLAY OK" in capsys.readouterr().out


def test_cli_unknown_workload(capsys):
    assert main(["no-such-workload"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    assert "locks-soft" in capsys.readouterr().out


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
    recorder = journal()
    journalled(name, seed, recorder)
    return recorder.epoch_digests[-1]


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
    results = {name: trace_digest(run_isolated(name, 31)) for name in names}
    with use_flight(FlightRecorder()):
        for name in names:
            assert trace_digest(run_isolated(name, 31)) == results[name], \
                name
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


def _pinned_digests():
    with open(_PINNED, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def test_pinned_digest_file_covers_every_workload():
    assert set(_pinned_digests()) == set(WORKLOADS)


def test_all_workloads_match_pinned_digests():
    pinned = _pinned_digests()
    for name in sorted(WORKLOADS):
        assert run_digest(name, seed=31) == pinned[name], \
            "workload {} drifted".format(name)
