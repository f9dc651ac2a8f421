"""Tests for tail-based sampling: error traces survive the head drop."""

import pytest

from repro.obs.sampling import Sampler
from repro.obs.tracer import NOOP_TRACER, Tracer


class DropAll:
    """A head sampler that drops every trace."""

    def sample(self, trace_id, name):
        return False


def test_error_trace_promoted_on_flush():
    tracer = Tracer(sampler=DropAll(), tail_keep_errors=True)
    root = tracer.start_span("op", at=0.0)
    child = tracer.start_span("child", at=0.1, parent=root)
    child.set_status("error")
    child.finish(at=0.2)
    root.finish(at=0.3)
    assert len(tracer.spans) == 0  # held aside, not yet retained
    promoted = tracer.tail_flush()
    assert promoted == 2
    assert tracer.tail_promoted == 2
    assert [s.name for s in tracer.spans] == ["op", "child"]


def test_healthy_trace_discarded_on_flush():
    tracer = Tracer(sampler=DropAll(), tail_keep_errors=True)
    span = tracer.start_span("op", at=0.0)
    span.finish(at=0.1)
    assert tracer.tail_flush() == 0
    assert len(tracer.spans) == 0
    assert tracer.sampled_out == 1


def test_dropped_status_counts_as_interesting():
    tracer = Tracer(sampler=DropAll(), tail_keep_errors=True)
    span = tracer.start_span("net.transmit", at=0.0)
    span.set_status("dropped:loss")
    span.finish(at=0.1)
    assert tracer.tail_flush() == 1


def test_head_sampled_traces_unaffected():
    tracer = Tracer(sampler=None, tail_keep_errors=True)
    span = tracer.start_span("op", at=0.0)
    span.finish(at=0.1)
    # Head-sampled spans retain immediately; nothing pends.
    assert len(tracer.spans) == 1
    assert tracer.tail_flush() == 0


def test_tail_buffer_evicts_oldest_trace():
    tracer = Tracer(sampler=DropAll(), tail_keep_errors=True,
                    tail_buffer=2)
    first = tracer.start_span("first", at=0.0)
    first.set_status("error")
    first.finish(at=0.1)
    second = tracer.start_span("second", at=0.2)
    second.finish(at=0.3)
    third = tracer.start_span("third", at=0.4)
    third.finish(at=0.5)
    # Adding the third span overflowed the 2-span buffer: the oldest
    # trace (first — despite its error) lost its chance.
    assert tracer.sampled_out == 1
    assert tracer.tail_flush() == 0
    assert len(tracer.spans) == 0


def test_unsampled_spans_record_when_tail_enabled():
    plain = Tracer(sampler=DropAll())
    span = plain.start_span("op", at=0.0)
    assert not span.recorded

    tail = Tracer(sampler=DropAll(), tail_keep_errors=True)
    span = tail.start_span("op", at=0.0)
    assert span.recorded


def test_default_off_behaviour_unchanged():
    tracer = Tracer(sampler=DropAll())
    span = tracer.start_span("op", at=0.0)
    span.finish(at=0.1)
    assert tracer.sampled_out == 1
    assert tracer.tail_flush() == 0
    assert tracer.tail_promoted == 0


def test_clear_resets_tail_state():
    tracer = Tracer(sampler=DropAll(), tail_keep_errors=True)
    span = tracer.start_span("op", at=0.0)
    span.set_status("error")
    tracer.clear()
    assert tracer.tail_flush() == 0
    assert tracer.tail_promoted == 0


def test_tail_flush_never_half_promotes_into_small_ring():
    # A 2-span error trace cannot fit a max_spans=1 ring whole;
    # promoting it would evict its own root and export a headless
    # fragment.  The whole trace is discarded instead.
    tracer = Tracer(sampler=DropAll(), tail_keep_errors=True,
                    max_spans=1)
    root = tracer.start_span("a", at=0.0)
    root.set_status("error")
    tracer.start_span("b", at=0.1, parent=root)
    assert tracer.tail_flush() == 0
    assert len(tracer.spans) == 0
    assert tracer.evicted == 0
    assert tracer.sampled_out == 2


def test_tail_flush_promotes_trace_that_fits_ring():
    tracer = Tracer(sampler=DropAll(), tail_keep_errors=True,
                    max_spans=2)
    root = tracer.start_span("a", at=0.0)
    root.set_status("error")
    tracer.start_span("b", at=0.1, parent=root)
    assert tracer.tail_flush() == 2
    assert [s.name for s in tracer.spans] == ["a", "b"]
    assert tracer.evicted == 0


def test_evicted_trace_is_not_half_promoted():
    # Regression: a trace whose root was evicted from the tail buffer
    # must not be resurrected by its later spans — tail_flush would
    # promote the fragment that arrived after the eviction.
    tracer = Tracer(sampler=DropAll(), tail_keep_errors=True,
                    tail_buffer=1)
    root = tracer.start_span("victim-root", at=0.0)
    root.set_status("error")
    root.finish(at=0.1)
    other = tracer.start_span("other", at=0.2)
    other.finish(at=0.3)
    # "other" overflowed the 1-span buffer and evicted the victim's
    # root.  A late child of the victim trace arrives afterwards:
    late = tracer.start_span("victim-child", at=0.4, parent=root)
    late.set_status("error")
    late.finish(at=0.5)
    assert tracer.tail_flush() == 0
    assert len(tracer.spans) == 0
    assert tracer.sampled_out == 3


def test_eviction_poison_resets_on_flush():
    tracer = Tracer(sampler=DropAll(), tail_keep_errors=True,
                    tail_buffer=1)
    first = tracer.start_span("first", at=0.0)
    first.finish(at=0.1)
    second = tracer.start_span("second", at=0.2)
    second.finish(at=0.3)  # evicts trace "first"
    tracer.tail_flush()
    # After a flush the slate is clean: a new trace reusing nothing
    # from the evicted one promotes normally.
    span = tracer.start_span("fresh", at=1.0)
    span.set_status("error")
    span.finish(at=1.1)
    assert tracer.tail_flush() == 1
    assert [s.name for s in tracer.spans] == ["fresh"]


def test_sampler_still_head_samples_with_tail_on():
    tracer = Tracer(sampler=Sampler(rate=1.0, seed=1),
                    tail_keep_errors=True)
    span = tracer.start_span("op", at=0.0)
    span.finish(at=0.1)
    assert len(tracer.spans) == 1


def test_validation_and_noop():
    with pytest.raises(ValueError):
        Tracer(tail_buffer=0)
    assert NOOP_TRACER.tail_flush() == 0
    assert NOOP_TRACER.tail_promoted == 0


# Each bound is a positive int and says so by name.  Unchecked, the
# first raised deque's anonymous TypeError and the other three were
# accepted (True as a ring of one, a buffer nothing would fill).

def test_fractional_max_spans_is_named():
    with pytest.raises(ValueError, match="max_spans must be a positive "
                                         "integer, got 2.5"):
        Tracer(max_spans=2.5)


def test_boolean_max_spans_is_not_a_ring_of_one():
    with pytest.raises(ValueError, match="max_spans .* got True"):
        Tracer(max_spans=True)


def test_tail_buffer_without_tail_sampling_is_refused():
    with pytest.raises(ValueError, match="tail_buffer .* tail_keep_errors"):
        Tracer(tail_buffer=5)


def test_fractional_tail_buffer_is_named():
    with pytest.raises(ValueError, match="tail_buffer must be a positive "
                                         "integer, got 2.5"):
        Tracer(tail_buffer=2.5, tail_keep_errors=True)
