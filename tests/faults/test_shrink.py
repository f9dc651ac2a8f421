"""Tests for the delta-debugging shrinker.

The fixtures are synthetic predicates with *known* minimal schedules,
so convergence is asserted exactly: the shrinker must land on the
minimum, not merely something smaller.
"""

from repro.faults.shrink import ddmin, shrink_schedule


def link_pair(at, lift_at, a="a", b="b"):
    return [{"at": float(at), "kind": "link-down", "a": a, "b": b},
            {"at": float(lift_at), "kind": "link-up", "a": a, "b": b}]


def crash_pair(at, lift_at, node="n"):
    return [{"at": float(at), "kind": "node-crash", "node": node},
            {"at": float(lift_at), "kind": "node-restart",
             "node": node}]


def contains(events, wanted):
    keys = [(e["kind"], e.get("a"), e.get("node")) for e in events]
    return all(w in keys for w in wanted)


# -- ddmin -------------------------------------------------------------------


def test_ddmin_converges_to_single_culprit():
    events = [{"id": i} for i in range(8)]
    minimal, _ = ddmin(events, lambda evs: {"id": 5}
                       in evs)
    assert minimal == [{"id": 5}]


def test_ddmin_converges_to_scattered_pair():
    events = [{"id": i} for i in range(10)]

    def test(evs):
        ids = [e["id"] for e in evs]
        return 2 in ids and 7 in ids

    minimal, _ = ddmin(events, test)
    assert [e["id"] for e in minimal] == [2, 7]


def test_ddmin_converges_to_triple():
    events = [{"id": i} for i in range(12)]

    def test(evs):
        ids = set(e["id"] for e in evs)
        return {0, 5, 11} <= ids

    minimal, _ = ddmin(events, test)
    assert sorted(e["id"] for e in minimal) == [0, 5, 11]


def test_ddmin_returns_input_when_not_failing():
    events = [{"id": i} for i in range(4)]
    minimal, tests_run = ddmin(events, lambda evs: False)
    assert minimal == events
    assert tests_run == 1


# -- seeded fixture failures with known minima -------------------------------


def test_shrink_fixture_lone_crash_pair():
    # Fixture 1: three fault pairs, only the crash of node "x" matters.
    events = (link_pair(2.0, 6.0) + crash_pair(3.0, 8.0, node="x")
              + link_pair(4.0, 9.0, a="c", b="d"))

    def failing(evs):
        return contains(evs, [("node-crash", None, "x"),
                              ("node-restart", None, "x")])

    report = shrink_schedule(events, failing)
    assert report["reproduced"]
    assert report["events_after"] == 2
    kinds = [e["kind"] for e in report["events"]]
    assert kinds == ["node-crash", "node-restart"]


def test_shrink_fixture_overlapping_pair_of_pairs():
    # Fixture 2: the failure needs BOTH the a-b cut and the crash.
    events = (link_pair(2.0, 10.0) + crash_pair(3.0, 9.0)
              + link_pair(5.0, 7.0, a="c", b="d"))

    def failing(evs):
        return contains(evs, [("link-down", "a", None),
                              ("node-crash", None, "n")])

    report = shrink_schedule(events, failing)
    assert report["reproduced"]
    down_kinds = sorted(e["kind"] for e in report["events"])
    assert "link-down" in down_kinds and "node-crash" in down_kinds
    assert report["events_after"] <= 4


def test_shrink_fixture_unbalanced_minimum_retained():
    # Fixture 3: only the onset matters — the lift may be dropped.
    events = link_pair(2.0, 20.0) + crash_pair(5.0, 15.0)

    def failing(evs):
        return any(e["kind"] == "node-crash" for e in evs)

    report = shrink_schedule(events, failing)
    assert report["reproduced"]
    assert report["events_after"] == 1
    assert report["events"][0]["kind"] == "node-crash"


# -- gap closing --------------------------------------------------------------


def test_shrink_closes_onset_lift_gap_to_threshold():
    events = link_pair(2.0, 10.0)

    def failing(evs):
        downs = {(e["a"], e["b"]): e["at"] for e in evs
                 if e["kind"] == "link-down"}
        for e in evs:
            if e["kind"] == "link-up":
                start = downs.get((e["a"], e["b"]))
                if start is not None and e["at"] - start >= 1.0:
                    return True
        return False

    report = shrink_schedule(events, failing)
    assert report["reproduced"]
    down, up = report["events"]
    assert up["at"] - down["at"] == 1.0


# -- budget ------------------------------------------------------------------


def test_shrink_budget_bounds_the_search():
    events = [{"id": i} for i in range(20)]
    report = shrink_schedule(events, lambda evs: bool(evs), budget=3)
    assert report["reproduced"]
    assert report["budget_exhausted"]
    assert report["tests_run"] <= 3


def test_shrink_rejects_non_reproducing_input():
    report = shrink_schedule(link_pair(1.0, 3.0), lambda evs: False)
    assert not report["reproduced"]
    assert report["events_after"] == report["events_before"]
