"""Tests for vector clocks, including hypothesis properties."""

from hypothesis import given, strategies as st

from repro.groups import VectorClock


def test_vector_clock_starts_empty():
    clock = VectorClock()
    assert clock.get("a") == 0
    assert clock.as_dict() == {}


def test_vector_increment_is_functional():
    base = VectorClock()
    bumped = base.increment("a")
    assert base.get("a") == 0
    assert bumped.get("a") == 1


def test_vector_merge():
    left = VectorClock({"a": 3, "b": 1})
    right = VectorClock({"a": 1, "c": 2})
    merged = left.merge(right)
    assert merged.as_dict() == {"a": 3, "b": 1, "c": 2}


def test_dominates_and_happened_before():
    early = VectorClock({"a": 1})
    late = VectorClock({"a": 2, "b": 1})
    assert late.dominates(early)
    assert early.happened_before(late)
    assert not late.happened_before(early)


def test_equal_clocks_not_happened_before():
    one = VectorClock({"a": 1})
    two = VectorClock({"a": 1})
    assert one == two
    assert not one.happened_before(two)


def test_concurrent_clocks():
    left = VectorClock({"a": 1})
    right = VectorClock({"b": 1})
    assert left.concurrent_with(right)
    assert right.concurrent_with(left)
    assert not left.happened_before(right)


def test_zero_components_equal_missing():
    assert VectorClock({"a": 0}) == VectorClock()
    assert hash(VectorClock({"a": 0})) == hash(VectorClock())


def test_eq_other_type():
    assert VectorClock() != 42


vc_dicts = st.dictionaries(
    st.sampled_from(["a", "b", "c"]), st.integers(0, 5), max_size=3)


@given(vc_dicts, vc_dicts)
def test_merge_dominates_both(d1, d2):
    left, right = VectorClock(d1), VectorClock(d2)
    merged = left.merge(right)
    assert merged.dominates(left)
    assert merged.dominates(right)


@given(vc_dicts, vc_dicts)
def test_merge_commutes(d1, d2):
    assert VectorClock(d1).merge(VectorClock(d2)) == \
        VectorClock(d2).merge(VectorClock(d1))


@given(vc_dicts)
def test_increment_strictly_after(d):
    base = VectorClock(d)
    assert base.happened_before(base.increment("a"))


@given(vc_dicts, vc_dicts)
def test_exactly_one_relation(d1, d2):
    """Any two clocks are <, >, ==, or concurrent — exactly one."""
    left, right = VectorClock(d1), VectorClock(d2)
    relations = [left.happened_before(right),
                 right.happened_before(left),
                 left == right,
                 left.concurrent_with(right)]
    assert sum(relations) == 1
