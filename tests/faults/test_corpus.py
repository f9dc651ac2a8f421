"""Tests for the fuzz corpus: entries, registration, staying fixed."""

import json
import os

import pytest

from repro.__main__ import main
from repro.errors import SimulationError
from repro.faults.corpus import (
    DEFAULT_DIR,
    REGISTRY_PREFIX,
    SCHEMA,
    corpus_workloads,
    entry_id,
    load_corpus,
    load_entry,
    make_entry,
    verify_entry,
    write_entry,
)
from repro.faults.fuzz import run_campaign
from repro.groups import MonitoredMembership
from repro.workload.catalogue import WORKLOADS

BASE, ORACLE = "partition-recovery", "invariant:view-recovers"
SCHEDULE = {"events": [
    {"at": 3.0, "kind": "node-crash", "node": "site1.host1"},
    {"at": 7.0, "kind": "node-restart", "node": "site1.host1"},
]}


def test_entry_round_trips_through_disk(tmp_path):
    entry = make_entry(BASE, 31, ORACLE, SCHEDULE,
                       message="no later view regained full membership",
                       campaign={"seed": 7, "trial": 4})
    path = write_entry(str(tmp_path), entry)
    assert path.endswith("fuzz-{}.json".format(entry["id"]))
    assert load_entry(path) == entry


def test_entry_id_is_content_stable():
    first = entry_id(BASE, 31, ORACLE, SCHEDULE)
    second = entry_id(BASE, 31, ORACLE,
                      json.loads(json.dumps(SCHEDULE)))
    assert first == second
    assert first != entry_id(BASE, 32, ORACLE, SCHEDULE)


def test_load_entry_rejects_wrong_schema(tmp_path):
    path = tmp_path / "fuzz-bad.json"
    path.write_text(json.dumps({"schema": "other/1"}))
    with pytest.raises(SimulationError) as err:
        load_entry(str(path))
    assert SCHEMA in err.value.args[0]


def test_load_entry_rejects_missing_field(tmp_path):
    entry = make_entry(BASE, 31, ORACLE, SCHEDULE, "m")
    del entry["workload_seed"]
    path = tmp_path / "fuzz-x.json"
    path.write_text(json.dumps(entry))
    with pytest.raises(SimulationError) as err:
        load_entry(str(path))
    assert "workload_seed" in err.value.args[0]


def test_load_entry_validation_names_offending_event(tmp_path):
    entry = make_entry(BASE, 31, ORACLE, SCHEDULE, "m")
    entry["schedule"]["events"][1] = {"at": 7.0, "kind": "node-restart"}
    path = tmp_path / "fuzz-y.json"
    path.write_text(json.dumps(entry))
    with pytest.raises(SimulationError) as err:
        load_entry(str(path))
    assert "event 1" in err.value.args[0]
    assert "node" in err.value.args[0]


def test_corpus_workloads_register_and_run(tmp_path):
    entry = make_entry(BASE, 31, ORACLE, SCHEDULE, "m")
    write_entry(str(tmp_path), entry)
    registry = corpus_workloads(str(tmp_path))
    name = REGISTRY_PREFIX + entry["id"]
    assert set(registry) == {name}
    result = registry[name](seed=31)
    assert result["workload"] == name
    assert result["base"] == BASE
    assert result["events"] == 2
    assert isinstance(result["reproduced"], bool)
    # The regression run itself must be deterministic.
    assert len(set(result["digests"])) == 1


def test_checked_in_corpus_is_registered():
    names = [name for name in WORKLOADS
             if name.startswith(REGISTRY_PREFIX)]
    assert names, "the checked-in corpus should register workloads"


def test_checked_in_corpus_stays_fixed(capsys):
    """Each checked-in reproducer's bug is fixed: its oracle stays quiet
    and its run replays identically."""
    entries = load_corpus()
    assert entries, "corpus/fuzz should hold at least one reproducer"
    for entry in entries:
        verdict = verify_entry(entry)
        assert not verdict["reproduced"], \
            "corpus entry {} fails {} again".format(
                entry["id"], entry["oracle"])
        assert verdict["deterministic"]
    assert main(["corpus"]) == 0
    assert "all {} reproducers stay fixed".format(len(entries)) \
        in capsys.readouterr().out


def test_the_rejoin_gap_reopened_is_found_again(monkeypatch, tmp_path,
                                                capsys):
    """With re-admission switched off, the seed-7 campaign finds the
    rejoin gap, shrinks it to the checked-in two-event reproducer, and
    the corpus gate fails."""
    monkeypatch.setattr(MonitoredMembership, "_on_return",
                        lambda self, member: None)
    summary = run_campaign(BASE, budget=25, seed=7, shrink=True,
                           corpus_dir=str(tmp_path), max_failures=1)
    assert summary["failure_count"] == 1
    failure = summary["failures"][0]
    assert failure["oracles"] == [ORACLE]
    shrink = failure["shrink"]
    assert shrink["reproduced"]
    assert (shrink["events_before"], shrink["events_after"]) == (6, 2)
    found = load_entry(failure["corpus"]["path"])
    checked_in = load_entry(os.path.join(DEFAULT_DIR,
                                         "fuzz-900641c7b37b.json"))
    assert found["id"] == checked_in["id"] == "900641c7b37b"
    assert found["schedule"] == checked_in["schedule"]
    assert main(["corpus"]) == 1
    assert "BAD  900641c7b37b" in capsys.readouterr().out
