"""Tests for the fuzz corpus: entries, registration, reproduction."""

import json

import pytest

from repro.__main__ import main
from repro.errors import SimulationError
from repro.faults.corpus import (
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


def test_checked_in_corpus_still_reproduces():
    entries = load_corpus()
    assert entries, "corpus/fuzz should hold at least one reproducer"
    for entry in entries:
        verdict = verify_entry(entry)
        assert verdict["reproduced"], \
            "corpus entry {} no longer fails {}".format(
                entry["id"], entry["oracle"])
        assert verdict["deterministic"]


def test_a_named_corpus_directory_that_does_not_exist_is_an_error(tmp_path,
                                                                  capsys):
    """A mistyped ``--dir`` printed "empty corpus: nothing to verify" and
    passed the gate."""
    missing = str(tmp_path / "no-such-dir")
    with pytest.raises(SimulationError, match=repr(missing)):
        load_corpus(missing)
    assert main(["corpus", "--dir", missing]) == 2
    captured = capsys.readouterr()
    assert repr(missing) in captured.err
    assert "nothing to verify" not in captured.out


def test_an_empty_named_corpus_directory_verifies_nothing(tmp_path, capsys):
    assert load_corpus(str(tmp_path)) == []
    assert main(["corpus", "--dir", str(tmp_path)]) == 0
    assert "empty corpus: nothing to verify" in capsys.readouterr().out
