"""Divergence localizer: bisection, epoch re-journal, the replay CLI."""

import io

from repro.analysis.replay import journal, journalled, main
from repro.obs.divergence import (
    CONTEXT,
    _first_mismatch,
    compare_digests,
    first_divergent_epoch,
    localize,
    render,
)
from repro.obs.flight import FlightRecorder


def _fork_pair(dispatches=20, fork_at=13, epoch_events=4):
    """Two synthetic journals forking at one injected RNG draw."""
    run_a = FlightRecorder(ring=1 << 10, epoch_events=epoch_events)
    run_b = FlightRecorder(ring=1 << 10, epoch_events=epoch_events)
    for eid in range(dispatches):
        for recorder in (run_a, run_b):
            recorder.on_dispatch(float(eid), 0, eid)
        if eid == fork_at:
            run_b.record_rng("s", "random", 0.999)
    run_a.finish()
    run_b.finish()
    return run_a, run_b


# -- bisection -------------------------------------------------------------


def test_first_divergent_epoch_identical_is_none():
    assert first_divergent_epoch(["a", "b"], ["a", "b"]) is None
    assert first_divergent_epoch([], []) is None


def test_first_divergent_epoch_finds_fork():
    run_a, run_b = _fork_pair(dispatches=20, fork_at=13, epoch_events=4)
    # The fork is in epoch 13 // 4 == 3; chaining makes every later
    # digest differ too, so bisection must still land on 3.
    assert run_a.epoch_digests[:3] == run_b.epoch_digests[:3]
    assert first_divergent_epoch(run_a.epoch_digests,
                                 run_b.epoch_digests) == 3


def test_first_divergent_epoch_prefix_length_mismatch():
    run_a, run_b = _fork_pair(dispatches=20, fork_at=13)
    # Equal-prefix, different-length: divergence is the first epoch the
    # shorter run never closed.
    assert first_divergent_epoch(run_a.epoch_digests[:2],
                                 run_a.epoch_digests) == 2
    assert first_divergent_epoch([], run_a.epoch_digests) == 0
    # Mixed: shorter AND forked — the fork wins.
    assert first_divergent_epoch(run_b.epoch_digests[:4],
                                 run_a.epoch_digests) == 3


def test_first_mismatch_on_epoch_records():
    run_a, run_b = _fork_pair(dispatches=20, fork_at=13, epoch_events=4)
    records_a = run_a.epoch_records(3)
    records_b = run_b.epoch_records(3)
    index = _first_mismatch(records_a, records_b)
    # Epoch 3 = eids 12..15; both journal dispatch 12 and 13, then B
    # has the injected draw.
    assert index == 2
    assert records_b[index]["kind"] == "rng"


# -- end-to-end on real workloads ------------------------------------------


def test_compare_digests_same_seed_agrees():
    report = compare_digests("locks-hard", 31)
    assert report["diverged"] is False
    assert report["epoch"] is None
    assert report["result_keys"] == []
    assert report["result_digests"][0] == report["result_digests"][1]
    # The chain bisected is the one a run's identity ends in.
    recorder = journal()
    journalled("locks-hard", 31, recorder)
    assert report["epochs"] == [len(recorder.epoch_digests)] * 2


def test_localize_names_fork_between_seeds():
    report = localize("locks-hard", 31, seed2=32)
    assert report["diverged"] is True
    assert report["epoch"] == 0         # different seeds fork instantly
    assert "seed" in report["result_keys"]
    assert report["record_index"] is not None
    assert report["record_a"] != report["record_b"]
    assert report["record_a"]["kind"] == report["record_b"]["kind"] == "rng"
    assert len(report["context_a"]) <= CONTEXT
    out = io.StringIO()
    render(report, out)
    text = out.getvalue()
    assert "first divergent epoch: 0" in text
    assert "first mismatched record" in text


def test_localize_self_compare_short_circuits():
    report = localize("locks-hard", 31)
    assert report["diverged"] is False
    assert "record_index" not in report
    out = io.StringIO()
    render(report, out)
    assert "no divergence" in out.getvalue()


# -- the replay CLI localizes ----------------------------------------------


def test_cli_same_seed_exits_zero(capsys):
    assert main(["locks-hard", "--seed", "31", "--seed2", "31"]) == 0
    out = capsys.readouterr().out
    assert "REPLAY OK" in out
    assert "no divergence: all" in out


def test_cli_seed_fork_exits_one(capsys):
    assert main(["locks-hard", "--seed", "31", "--seed2", "32"]) == 1
    out = capsys.readouterr().out
    assert "REPLAY MISMATCH" in out
    assert "seed 31 vs seed 32" in out
    assert "result keys that differ: " in out
    assert "first divergent epoch: 0" in out
    assert "first mismatched record (epoch 0, record " in out
    assert '"kind":"rng","method":"random","stream":"locks-hard"' in out


def test_cli_unknown_workload_exits_two(capsys):
    assert main(["no-such-workload", "--seed2", "32"]) == 2
    assert "no-such-workload" in capsys.readouterr().err
