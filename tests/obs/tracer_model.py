"""The object-graph tracer, kept as a reference model.

Every span used to be three live objects — a :class:`Span`, its
:class:`SpanContext` and an events list — and a ``net.link`` hop was a
``start_span`` call with a kwargs dict plus a one-entry ``tx-start``
event dict.  The rows that replaced them (``repro.obs.span.Span`` with
its identity inline, ``HopSpan`` filled by the carrier) are held to
that code here: the classes and functions below are the replaced ones
verbatim, less their docstrings and the conveniences no test drives
(``span()``, ``trace()``, ``finished_spans()``, the reprs), so a test
can drive both with the same steps and compare what a reader sees.  A
reference, not a second path — nothing under ``src/`` imports this.
"""

from __future__ import annotations

import collections
import itertools
from typing import Any, Dict, List, Optional, Union

from repro.obs.sampling import Sampler
from repro.obs.span import OK, NoopSpan

TRACE_HEADER = "trace"


class SpanContext:
    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str,
                 sampled: bool = True) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"trace_id": self.trace_id,
                                "span_id": self.span_id}
        if not self.sampled:
            data["sampled"] = False
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanContext":
        return cls(data["trace_id"], data["span_id"],
                   sampled=data.get("sampled", True))


class Span:
    __slots__ = ("name", "context", "parent_id", "start", "end",
                 "attributes", "events", "status", "recorded")

    def __init__(self, name: str, context: SpanContext,
                 parent_id: Optional[str], start: float,
                 attributes: Optional[Dict[str, Any]] = None,
                 recorded: bool = True) -> None:
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = attributes or {}
        self.events: List[Dict[str, Any]] = []
        self.status = OK
        self.recorded = recorded

    @property
    def is_recording(self) -> bool:
        return self.recorded

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        return self.context.span_id

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def add_event(self, name: str, at: float, **attributes: Any) -> None:
        event: Dict[str, Any] = {"name": name, "at": at}
        if attributes:
            event.update(attributes)
        self.events.append(event)

    def set_status(self, status: str) -> None:
        self.status = status

    def finish(self, at: float) -> None:
        if self.end is None:
            self.end = at

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "status": self.status,
        }
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        if self.events:
            record["events"] = list(self.events)
        return record


ParentLike = Union[Span, SpanContext, Dict[str, str], None]


class Tracer:
    def __init__(self, sampler: Optional[Sampler] = None,
                 max_spans: Optional[int] = None,
                 tail_keep_errors: bool = False,
                 tail_buffer: Optional[int] = None) -> None:
        if max_spans is not None and max_spans <= 0:
            raise ValueError("max_spans must be positive")
        if tail_buffer is not None and tail_buffer <= 0:
            raise ValueError("tail_buffer must be positive")
        self.sampler = sampler
        self.max_spans = max_spans
        self.tail_keep_errors = tail_keep_errors
        self.tail_buffer = tail_buffer
        self.spans = collections.deque(maxlen=max_spans) \
            if max_spans is not None else []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._tail_pending: "collections.OrderedDict[str, List[Span]]" = \
            collections.OrderedDict()
        self._tail_pending_spans = 0
        self._tail_evicted: set = set()
        self.evicted = 0
        self.sampled_out = 0
        self.tail_promoted = 0

    def start_span(self, name: str, at: float, parent: ParentLike = None,
                   **attributes: Any) -> Span:
        parent_ctx = _as_context(parent)
        if parent_ctx is None:
            trace_id = "t{}".format(next(self._trace_ids))
            parent_id = None
            sampled = True if self.sampler is None \
                else self.sampler.sample(trace_id)
        else:
            trace_id = parent_ctx.trace_id
            parent_id = parent_ctx.span_id
            sampled = getattr(parent_ctx, "sampled", True)
        context = SpanContext(trace_id, "s{}".format(next(self._span_ids)),
                              sampled=sampled)
        span = Span(name, context, parent_id, at, attributes or None,
                    recorded=sampled or self.tail_keep_errors)
        if sampled:
            self._retain(span)
        elif self.tail_keep_errors:
            self._tail_hold(span)
        else:
            self.sampled_out += 1
        return span

    def _retain(self, span: Span) -> None:
        if self.max_spans is not None and len(self.spans) == self.max_spans:
            self.evicted += 1
        self.spans.append(span)

    def _tail_hold(self, span: Span) -> None:
        if span.trace_id in self._tail_evicted:
            self.sampled_out += 1
            return
        trace = self._tail_pending.setdefault(span.trace_id, [])
        trace.append(span)
        self._tail_pending_spans += 1
        while self.tail_buffer is not None \
                and self._tail_pending_spans > self.tail_buffer \
                and len(self._tail_pending) > 1:
            trace_id, evicted = self._tail_pending.popitem(last=False)
            self._tail_pending_spans -= len(evicted)
            self.sampled_out += len(evicted)
            self._tail_evicted.add(trace_id)

    def tail_flush(self) -> int:
        promoted = 0
        for spans in self._tail_pending.values():
            keep = any(span.status != "ok" for span in spans)
            if keep and self.max_spans is not None \
                    and len(spans) > self.max_spans:
                keep = False
            if keep:
                for span in spans:
                    self._retain(span)
                promoted += len(spans)
                self.tail_promoted += len(spans)
            else:
                self.sampled_out += len(spans)
        self._tail_pending.clear()
        self._tail_pending_spans = 0
        self._tail_evicted.clear()
        return promoted

    def clear(self) -> None:
        self.spans = collections.deque(maxlen=self.max_spans) \
            if self.max_spans is not None else []
        self._tail_pending.clear()
        self._tail_pending_spans = 0
        self._tail_evicted.clear()
        self.evicted = 0
        self.sampled_out = 0
        self.tail_promoted = 0


def _as_context(parent: ParentLike) -> Optional[SpanContext]:
    if parent is None or isinstance(parent, NoopSpan):
        return None
    if isinstance(parent, Span):
        return parent.context
    if isinstance(parent, SpanContext):
        return parent
    if isinstance(parent, dict):
        return SpanContext.from_dict(parent)
    raise TypeError("cannot parent a span under {!r}".format(parent))


def inject(span: Union[Span, NoopSpan, SpanContext, None],
           headers: Dict[str, Any]) -> Dict[str, Any]:
    context = span if isinstance(span, SpanContext) \
        else getattr(span, "context", None)
    if context is not None:
        headers[TRACE_HEADER] = context.to_dict()
    return headers


def extract(headers: Optional[Dict[str, Any]]) -> Optional[SpanContext]:
    if not headers:
        return None
    data = headers.get(TRACE_HEADER)
    if not data:
        return None
    return SpanContext.from_dict(data)
