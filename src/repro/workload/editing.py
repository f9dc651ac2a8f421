"""Co-editing workload generation.

An :class:`EditingWorkload` emits a deterministic trace of
:class:`EditEvent` items: each user alternates think time (exponential)
and an edit of some span of words at a Zipf-hot-spotted position in a
structured document.  The hot-spot skew is the conflict-rate knob the
concurrency experiments sweep.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.concurrency.granularity import StructuredDocument
from repro.errors import ReproError
from repro.sim import RandomStreams, exponential, zipf_index


class EditEvent:
    """One user edit: who, when, where, how much."""

    __slots__ = ("user", "at", "position", "span", "duration")

    def __init__(self, user: str, at: float, position: int, span: int,
                 duration: float) -> None:
        self.user = user
        self.at = at
        self.position = position
        self.span = span
        self.duration = duration

    def __repr__(self) -> str:
        return "<EditEvent {}@{:.2f} words[{}:{}]>".format(
            self.user, self.at, self.position, self.position + self.span)


class EditingWorkload:
    """Deterministic co-editing trace over a structured document."""

    def __init__(self, users: Sequence[str],
                 document: Optional[StructuredDocument] = None,
                 think_mean: float = 5.0, span_mean: float = 4.0,
                 edit_duration_mean: float = 2.0,
                 hotspot_skew: float = 0.0, duration: float = 300.0,
                 seed: int = 0) -> None:
        if not users:
            raise ReproError("workload needs at least one user")
        if think_mean <= 0 or span_mean < 1 or duration <= 0:
            raise ReproError("invalid workload parameters")
        self.users = list(users)
        self.document = document or StructuredDocument()
        self.think_mean = think_mean
        self.span_mean = span_mean
        self.edit_duration_mean = edit_duration_mean
        self.hotspot_skew = hotspot_skew
        self.duration = duration
        self.seed = seed

    def generate(self) -> List[EditEvent]:
        """The full trace, time-ordered, identical for a given seed."""
        streams = RandomStreams(self.seed)
        events: List[EditEvent] = []
        total_words = self.document.total_words
        for user in self.users:
            rng = streams.stream("user-" + user)
            at = exponential(rng, self.think_mean)
            while at < self.duration:
                span = max(1, min(total_words,
                                  round(exponential(rng, self.span_mean))
                                  or 1))
                position = zipf_index(rng, total_words - span + 1,
                                      skew=self.hotspot_skew)
                edit_time = max(0.1, exponential(
                    rng, self.edit_duration_mean))
                events.append(EditEvent(user, at, position, span,
                                        edit_time))
                at += edit_time + exponential(rng, self.think_mean)
        events.sort(key=lambda event: (event.at, event.user))
        return events

