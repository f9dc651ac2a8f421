"""Spans: the unit of causal tracing.

A :class:`Span` records one timed operation (an invocation, a packet
transit, a lock wait) with parent/child links, so a whole distributed
interaction — caller think-time, serialisation, per-link transit, remote
execution — reads as one tree.  Timestamps are *simulated* seconds taken
from :attr:`Environment.now <repro.sim.Environment.now>` by the
instrumentation sites; the tracing layer never advances the clock.
"""

from __future__ import annotations

import struct
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
    Its ``attributes`` dict may be one that other spans hold too (the
    tracer shares repeated sets), so it is read-only:
    :meth:`set_attribute` gives the span a new one.

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
        # A new dict: the one held may be a set other spans share
        # (Tracer.start_span interns them), so it is never written.
        self.attributes = {**self.attributes, key: value}

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


class TransitSpan(Span):
    """The ``net.transmit`` span of a recorded packet: one row for the
    packet and every hop it takes.

    Its ``src``, ``dst``, ``port`` and ``bytes`` are slots, and
    :attr:`attributes` is built on read from them and whatever
    :meth:`set_attribute` added (``drop_reason``), in that order.
    Each hop the packet's carrier claims is one fixed-width
    :data:`HOP_RECORD` appended to :attr:`hops` (a ``bytearray``, which
    the collector does not track), not an object: the hop's span id, its
    link's index in the topology's ``link_order``, whether the link
    was crossed from its ``b`` end, the claim, tx-start and end times
    (NaN until stamped) and whether the hop dropped.  The current hop
    is always the last record.  :attr:`links` keys the link table its
    tracer resolves link indices in; :meth:`hop` builds a hop's row.
    """

    __slots__ = ("src", "dst", "port", "bytes", "extra", "hops", "links")

    def __init__(self, trace_id: str, span_id: str,
                 parent_id: Optional[str], start: float, sampled: bool,
                 recorded: bool, src: str, dst: str, port: int,
                 nbytes: int, links: int) -> None:
        self.name = "net.transmit"
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.events = ()
        self.status = OK
        self.recorded = recorded
        self.src = src
        self.dst = dst
        self.port = port
        self.bytes = nbytes
        self.extra: Optional[Dict[str, Any]] = None
        self.hops = bytearray()
        self.links = links

    @property
    def attributes(self) -> Dict[str, Any]:
        attributes = {"src": self.src, "dst": self.dst, "port": self.port,
                      "bytes": self.bytes}
        if self.extra:
            attributes.update(self.extra)
        return attributes

    def set_attribute(self, key: str, value: Any) -> None:
        if key in _TRANSIT_SLOTS:
            setattr(self, key, value)
        elif self.extra is None:
            self.extra = {key: value}
        else:
            self.extra[key] = value

    def open_hop(self, span_id: int, link: int, from_b: bool,
                 at: float) -> int:
        """Pack a hop claimed at ``at``; returns its record index."""
        hops = self.hops
        index = len(hops) // HOP_RECORD.size
        hops += HOP_RECORD.pack(span_id, link, from_b, at, _UNSET, _UNSET,
                                False)
        return index

    def hop_sent(self, at: float) -> None:
        """Stamp the current hop's tx-start (its channel grant)."""
        _TIME.pack_into(self.hops, _SENT_AT, at)

    def hop_ended(self, at: float, dropped: bool = False) -> None:
        """Stamp the current hop's end and whether it dropped there."""
        _ENDED.pack_into(self.hops, -_ENDED.size, at, dropped)

    def hop_status(self, index: int) -> str:
        """What the status of hop ``index``'s row reads."""
        return DROPPED if self.hops[
            (index + 1) * HOP_RECORD.size - 1] else OK

    def hop(self, index: int, links: Sequence[Any]) -> "HopSpan":
        """Hop ``index``'s row, with its link found in ``links``."""
        span_id, link, from_b, start, tx_start, end, dropped = \
            HOP_RECORD.unpack_from(self.hops, index * HOP_RECORD.size)
        link = links[link]
        hop = HopSpan(self.trace_id, f"s{span_id}", self.span_id, start,
                      self.sampled, link.label, link.b if from_b else link.a,
                      self.bytes)
        if tx_start == tx_start:        # NaN: not yet granted
            hop.tx_start = tx_start
        if end == end:
            hop.end = end
        if dropped:
            hop.status = DROPPED
        return hop


#: One hop record: span id, link index, crossed from ``link.b``, claim,
#: tx-start and end times, dropped.  Little-endian, no padding.
HOP_RECORD = struct.Struct("<QI?ddd?")
_TIME = struct.Struct("<d")        # tx-start, just before ...
_ENDED = struct.Struct("<d?")     # ... a record's tail: end, dropped
_SENT_AT = -_TIME.size - _ENDED.size  # tx-start's offset from the end
_UNSET = float("nan")
_TRANSIT_SLOTS = frozenset(("src", "dst", "port", "bytes"))


class HopSpan(Span):
    """One ``net.link`` hop of a recorded packet, as a reader sees it.

    Built on read from its transit's record (:meth:`TransitSpan.hop`):
    :attr:`attributes`, :attr:`events` and so :meth:`to_dict` read
    exactly as a ``start_span`` with ``link=``, ``node=``, ``bytes=``
    and one ``tx-start`` event read.  A row is a snapshot the carrier
    never sees, so every mutator raises ``TypeError``.
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

    def set_status(self, status: str) -> None:
        raise TypeError("a net.link hop's status is its carrier's")

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
