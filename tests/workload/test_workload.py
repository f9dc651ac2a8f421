"""Tests for the synthetic workload generators."""

import pytest

from repro.concurrency import StructuredDocument
from repro.errors import ReproError
from repro.workload import EditingWorkload


def test_workload_validation():
    with pytest.raises(ReproError):
        EditingWorkload([])
    with pytest.raises(ReproError):
        EditingWorkload(["a"], think_mean=0)
    with pytest.raises(ReproError):
        EditingWorkload(["a"], duration=0)


def test_workload_deterministic_for_seed():
    users = ["alice", "bob"]
    first = EditingWorkload(users, seed=42).generate()
    second = EditingWorkload(users, seed=42).generate()
    assert [(e.user, e.at, e.position, e.span) for e in first] == \
        [(e.user, e.at, e.position, e.span) for e in second]


def test_workload_changes_with_seed():
    users = ["alice", "bob"]
    a = EditingWorkload(users, seed=1).generate()
    b = EditingWorkload(users, seed=2).generate()
    assert [(e.at, e.position) for e in a] != \
        [(e.at, e.position) for e in b]


def test_workload_events_time_ordered_and_bounded():
    workload = EditingWorkload(["a", "b", "c"], duration=100.0, seed=3)
    events = workload.generate()
    assert events
    times = [event.at for event in events]
    assert times == sorted(times)
    assert all(0 <= event.at < 100.0 for event in events)
    doc = workload.document
    assert all(0 <= event.position
               and event.position + event.span <= doc.total_words
               for event in events)


def test_hotspot_skew_raises_conflicts():
    """Skew piles edits onto the hottest paragraph, where they collide."""
    doc = StructuredDocument()
    users = ["a", "b", "c", "d"]

    def hottest_share(skew):
        events = EditingWorkload(users, document=doc, hotspot_skew=skew,
                                 duration=200.0, seed=5).generate()
        firsts = [doc.units_for_span("paragraph", event.position,
                                     event.span)[0] for event in events]
        return max(firsts.count(unit) for unit in firsts) / len(firsts)

    assert hottest_share(2.0) > 2 * hottest_share(0.0)
