"""Spans: the unit of causal tracing.

A :class:`Span` records one timed operation (an invocation, a packet
transit, a lock wait) with parent/child links, so a whole distributed
interaction — caller think-time, serialisation, per-link transit, remote
execution — reads as one tree.  Timestamps are *simulated* seconds taken
from :attr:`Environment.now <repro.sim.Environment.now>` by the
instrumentation sites; the tracing layer never advances the clock.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

#: Span status values.
OK = "ok"
DROPPED = "dropped"
ERROR = "error"


class SpanContext:
    """The propagatable identity of a span: ``(trace_id, span_id)``.

    Contexts cross the simulated network inside packet headers (see
    :mod:`repro.obs.propagation`), so a remote nucleus can parent its
    serving span under the calling span.  ``sampled`` carries the
    head-based sampling decision made at the trace root (see
    :mod:`repro.obs.sampling`): descendants of an unsampled root are
    never retained, on any node the trace touches.
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str,
                 sampled: bool = True) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable form, safe to place in packet headers.

        Sampled contexts serialise exactly as before sampling existed
        (two keys), keeping packet headers byte-identical for runs that
        never construct a sampler.
        """
        data: Dict[str, Any] = {"trace_id": self.trace_id,
                                "span_id": self.span_id}
        if not self.sampled:
            data["sampled"] = False
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanContext":
        return cls(data["trace_id"], data["span_id"],
                   sampled=data.get("sampled", True))

    def __repr__(self) -> str:
        return "<SpanContext {}/{}{}>".format(
            self.trace_id, self.span_id,
            "" if self.sampled else " unsampled")


class Span:
    """One recorded operation in a trace tree: one slotted row.

    It holds its own identity; :attr:`context` builds a fresh
    :class:`SpanContext` on each read.  ``events`` is ``()`` until the
    first :meth:`add_event`, so a retained span is one tracked object.

    A span whose trace was sampled out still exists transiently (its
    context must propagate so downstream nodes honour the decision) but
    is created with ``recorded=False``, is never retained by the tracer
    and reports :attr:`is_recording` as ``False`` so hot paths can skip
    per-hop span work entirely.
    """

    __slots__ = ("name", "trace_id", "span_id", "sampled", "parent_id",
                 "start", "end", "attributes", "events", "status",
                 "recorded")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: Optional[str], start: float,
                 attributes: Dict[str, Any], sampled: bool = True,
                 recorded: bool = True) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.attributes = attributes
        self.events = ()
        self.status = OK
        self.recorded = recorded

    @property
    def is_recording(self) -> bool:
        return self.recorded

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id, self.sampled)

    @property
    def duration(self) -> float:
        """Seconds from start to finish (0.0 while unfinished)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def add_event(self, name: str, at: float, **attributes: Any) -> None:
        """Record a point-in-time annotation on the span."""
        event: Dict[str, Any] = {"name": name, "at": at}
        if attributes:
            event.update(attributes)
        if self.events:
            self.events.append(event)
        else:
            self.events = [event]

    def set_status(self, status: str) -> None:
        self.status = status

    def finish(self, at: float) -> None:
        """Close the span at simulated time ``at`` (idempotent)."""
        if self.end is None:
            self.end = at

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable record (the JSONL export row)."""
        record: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
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

    def __repr__(self) -> str:
        return "<Span {} {} [{:.6g}..{}]>".format(
            self.name, self.span_id, self.start,
            "{:.6g}".format(self.end) if self.end is not None else "?")


class HopSpan(Span):
    """One ``net.link`` hop of a recorded packet: a row its carrier fills
    (``tx_start`` at the channel grant, then ``end`` and, on a drop,
    ``status``).  :attr:`attributes`, :attr:`events` and so
    :meth:`to_dict` are built on read, exactly as a ``start_span`` with
    ``link=``, ``node=``, ``bytes=`` and one ``tx-start`` event read.
    Only the carrier writes it: :meth:`set_attribute`, :meth:`add_event`
    and :meth:`finish` raise ``TypeError``.
    """

    __slots__ = ("link", "node", "bytes", "tx_start")

    name = "net.link"
    recorded = True

    def __init__(self, trace_id: str, span_id: str, parent_id: str,
                 start: float, sampled: bool, link: str, node: str,
                 nbytes: int) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled
        self.parent_id = parent_id
        self.start = start
        self.end = None
        self.status = OK
        self.link = link
        self.node = node
        self.bytes = nbytes
        self.tx_start: Optional[float] = None

    @property
    def attributes(self) -> Dict[str, Any]:
        return {"link": self.link, "node": self.node, "bytes": self.bytes}

    @property
    def events(self) -> Sequence[Dict[str, Any]]:
        if self.tx_start is None:
            return ()
        return [{"name": "tx-start", "at": self.tx_start}]

    def set_attribute(self, key: str, value: Any) -> None:
        raise TypeError("a net.link hop holds only link, node and bytes")

    def add_event(self, name: str, at: float, **attributes: Any) -> None:
        raise TypeError("a net.link hop holds only its tx-start")

    def finish(self, at: float) -> None:
        raise TypeError("a net.link hop is closed by its carrier")


class NoopSpan:
    """The do-nothing span handed out by the disabled tracer.

    Every mutator is a no-op and :attr:`context` is ``None`` so nothing is
    ever injected into packet headers.  A single shared instance serves
    every call site, keeping the disabled path allocation-free; what it
    reads as (no attributes, no events) is immutable, so no caller can
    leave state behind for the next.
    """

    __slots__ = ()

    context = None
    parent_id = None
    name = ""
    status = OK
    start = 0.0
    end = 0.0
    attributes: Mapping[str, Any] = MappingProxyType({})
    events: Tuple[Dict[str, Any], ...] = ()

    @property
    def is_recording(self) -> bool:
        return False

    @property
    def duration(self) -> float:
        return 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def add_event(self, name: str, at: float, **attributes: Any) -> None:
        pass

    def set_status(self, status: str) -> None:
        pass

    def finish(self, at: float) -> None:
        pass

    def __repr__(self) -> str:
        return "<NoopSpan>"


#: The shared disabled-tracer span.
NOOP_SPAN = NoopSpan()
