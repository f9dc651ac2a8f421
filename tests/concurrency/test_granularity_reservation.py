"""Tests for lock granularity modelling and reservation control."""

import pytest
from hypothesis import given, strategies as st

from repro.concurrency import (
    GRANULARITIES,
    ReservationControl,
    StructuredDocument,
)
from repro.errors import ConcurrencyError, FloorControlError
from repro.sim import Environment


def make_doc():
    return StructuredDocument(sections=3, paragraphs_per_section=4,
                              sentences_per_paragraph=5,
                              words_per_sentence=6)


def test_document_shape():
    doc = make_doc()
    assert doc.words_per_sentence == 6
    assert doc.words_per_paragraph == 30
    assert doc.words_per_section == 120
    assert doc.total_words == 360


def test_document_shape_validation():
    with pytest.raises(ConcurrencyError):
        StructuredDocument(sections=0)


def test_unit_counts():
    doc = make_doc()
    assert doc.unit_count("document") == 1
    assert doc.unit_count("section") == 3
    assert doc.unit_count("paragraph") == 12
    assert doc.unit_count("sentence") == 60
    assert doc.unit_count("word") == 360


def test_units_for_span_counts():
    doc = make_doc()
    # A 12-word edit starting at word 0 covers 2 sentences, 1 paragraph.
    assert len(doc.units_for_span("sentence", 0, 12)) == 2
    assert len(doc.units_for_span("paragraph", 0, 12)) == 1
    assert len(doc.units_for_span("word", 0, 12)) == 12


def test_units_for_span_validation():
    doc = make_doc()
    with pytest.raises(ConcurrencyError):
        doc.units_for_span("word", 0, 0)
    with pytest.raises(ConcurrencyError):
        doc.units_for_span("word", 355, 10)


def _contend(doc, granularity, span_a, span_b):
    """Would two (start, length) edits hold a common lock unit?"""
    return bool(set(doc.units_for_span(granularity, *span_a))
                & set(doc.units_for_span(granularity, *span_b)))


def test_spans_conflict_depends_on_granularity():
    doc = make_doc()
    # Two edits in the same paragraph but different sentences.
    edit_a = (0, 3)    # sentence 0
    edit_b = (12, 3)   # sentence 2
    assert _contend(doc, "paragraph", edit_a, edit_b)
    assert not _contend(doc, "sentence", edit_a, edit_b)
    assert _contend(doc, "document", edit_a, edit_b)


@given(st.integers(0, 359), st.integers(0, 359))
def test_coarser_granularity_conflicts_superset(word_a, word_b):
    """If two single-word edits conflict at a fine granularity, they
    conflict at every coarser one — the monotonicity behind E2."""
    doc = make_doc()
    spans = ((word_a, 1), (word_b, 1))
    fine_to_coarse = list(reversed(GRANULARITIES))  # word ... document
    conflicted = False
    for granularity in fine_to_coarse:
        now = _contend(doc, granularity, *spans)
        assert now or not conflicted
        conflicted = conflicted or now
    assert _contend(doc, "document", *spans)


def test_reservation_grant_and_queue():
    env = Environment()
    floor = ReservationControl(env)
    order = []

    def speaker(env, name, hold):
        yield floor.request(name)
        order.append((name, env.now))
        yield env.timeout(hold)
        floor.release(name)

    env.process(speaker(env, "alice", 2.0))
    env.process(speaker(env, "bob", 1.0))
    env.process(speaker(env, "carol", 1.0))
    env.run()
    assert order == [("alice", 0.0), ("bob", 2.0), ("carol", 3.0)]


def test_reservation_release_requires_holder():
    env = Environment()
    floor = ReservationControl(env)
    floor.request("alice")
    with pytest.raises(FloorControlError):
        floor.release("bob")


def test_reservation_check():
    env = Environment()
    floor = ReservationControl(env)
    floor.request("alice")
    floor.check("alice")
    with pytest.raises(FloorControlError):
        floor.check("bob")
    assert floor.holds("alice")
    assert not floor.holds("bob")
