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
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

#: Span status values.
OK = "ok"
DROPPED = "dropped"
ERROR = "error"

#: A span or trace id as a handle or a row holds it: the tracer's own
#: ``"s{n}"``/``"t{n}"`` as ``n``, any other id as its text.
Number = Union[int, str]


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


def render(prefix: str, number: Number) -> str:
    """The id ``number`` stands for: ``prefix`` then the number, or
    the id text itself when it is not one of a tracer's."""
    return f"{prefix}{number}" if number.__class__ is int else number


def number(text: str, prefix: str) -> Number:
    """The number ``render(prefix, n)`` reads as ``text``, or ``text``
    when no number does (an id from elsewhere: ``"s07"``, ``"x1"``)."""
    digits = text[1:]
    if text[:1] == prefix and digits.isdigit() and digits.isascii() \
            and digits[0] != "0":
        return int(digits)
    return text


class TraceHeader(dict):
    """A span's context as its packets carry it: exactly the dict
    :meth:`SpanContext.to_dict` writes (it reads, compares and
    serialises as one), which also carries the span's numbers, so a
    tracer opening a span under it takes them instead of parsing its
    text (a copy or a JSON round trip is a plain dict, and is parsed)."""

    __slots__ = ("trace_no", "span_no")


class Span:
    """The handle of one recorded operation in a trace tree.

    A tracer keeps what it retains as rows of typed columns
    (:class:`~repro.obs.tracer.SpanLog`); a ``Span`` is what the caller
    holds while the operation runs.  It keeps its own fields, so it
    reads the same whether or not its row is still retained, and each
    mutator also writes through to its row while the tracer has one
    (``_log``/``_row``).  Its ids are numbers: ``span_no`` is the
    ``n`` of ``"s{n}"``, drawn from its tracer's counter, and
    ``trace_no`` and ``parent_no`` (``None`` for a root) are such a
    number, or an id's text when it came from elsewhere;
    :attr:`trace_id`, :attr:`span_id`, :attr:`parent_id`,
    :attr:`context` and :meth:`header` render them on read.
    ``events`` is ``()`` until the first :meth:`add_event`.  Its
    ``attributes`` dict may be one that other spans hold too (the
    tracer shares repeated sets), so it is read-only:
    :meth:`set_attribute` gives the span a new one, which the tracer
    looks up in its table too.

    A span whose trace was sampled out still exists transiently (its
    context must propagate so downstream nodes honour the decision) but
    is created with ``recorded=False``, is never retained by the tracer
    and reports :attr:`is_recording` as ``False`` so hot paths can skip
    per-hop span work entirely.
    """

    __slots__ = ("name", "trace_no", "span_no", "parent_no", "sampled",
                 "start", "end", "attributes", "events", "status",
                 "recorded", "_log", "_row")

    def __init__(self, name: str, trace_no: Number, span_no: int,
                 parent_no: Optional[Number], start: float,
                 attributes: Dict[str, Any], sampled: bool = True,
                 recorded: bool = True) -> None:
        self.name = name
        self.trace_no = trace_no
        self.span_no = span_no
        self.parent_no = parent_no
        self.sampled = sampled
        self.start = start
        self.end: Optional[float] = None
        self.attributes = attributes
        self.events = ()
        self.status = OK
        self.recorded = recorded
        self._log: Any = None

    @property
    def trace_id(self) -> str:
        return render("t", self.trace_no)

    @property
    def span_id(self) -> str:
        return f"s{self.span_no}"

    @property
    def parent_id(self) -> Optional[str]:
        parent = self.parent_no
        return None if parent is None else render("s", parent)

    @property
    def is_recording(self) -> bool:
        return self.recorded

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id, self.sampled)

    def header(self) -> TraceHeader:
        """The context's :meth:`~SpanContext.to_dict`, for a packet."""
        trace, span = self.trace_no, self.span_no
        header = TraceHeader()
        header["trace_id"] = f"t{trace}" if trace.__class__ is int else trace
        header["span_id"] = f"s{span}"
        if not self.sampled:
            header["sampled"] = False
        header.trace_no, header.span_no = trace, span
        return header

    @property
    def duration(self) -> float:
        """Seconds from start to finish (0.0 while unfinished)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set_attribute(self, key: str, value: Any) -> None:
        # A new dict: the one held may be a set other spans share, so
        # it is never written; the row takes the table's equal set.
        attributes = {**self.attributes, key: value}
        if self._log is not None:
            attributes = self._log.set_attributes(self._row, self.name,
                                                  attributes)
        self.attributes = attributes

    def add_event(self, name: str, at: float, **attributes: Any) -> None:
        """Record a point-in-time annotation on the span."""
        event: Dict[str, Any] = {"name": name, "at": at}
        if attributes:
            event.update(attributes)
        if self.events:
            self.events.append(event)
        else:
            self.events = [event]
            if self._log is not None:
                self._log.set_events(self._row, self.events)

    def set_status(self, status: str) -> None:
        self.status = status
        if self._log is not None:
            self._log.set_status(self._row, status)

    def finish(self, at: float) -> None:
        """Close the span at simulated time ``at`` (idempotent)."""
        if self.end is None:
            self.end = at
            log = self._log
            if log is not None:
                # The row's end, in place while the log is no ring.
                if log.ring or at.__class__ is not float or at != at:
                    log.set_time(self._row, 1, at)      # _END
                else:
                    log.ends[self._row - log.base] = at

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
    """One ``net.link`` hop of a recorded packet, as a reader sees it.

    Built on read from its row: :attr:`attributes`, :attr:`events` and
    so :meth:`to_dict` read exactly as a ``start_span`` with ``link=``,
    ``node=``, ``bytes=`` and one ``tx-start`` event read.  A row is a
    snapshot the carrier never sees, so every mutator raises
    ``TypeError``.  (A hop the tracer holds for tail sampling waits in
    one of these too; the tracer stamps its fields itself.)
    """

    __slots__ = ("link", "node", "bytes", "tx_start")

    name = "net.link"
    recorded = True

    def __init__(self, trace_no: Number, span_no: int, parent_no: Number,
                 start: float, sampled: bool, link: str, node: str,
                 nbytes: int) -> None:
        self.trace_no = trace_no
        self.span_no = span_no
        self.parent_no = parent_no
        self.sampled = sampled
        self.start = start
        self.end = None
        self.status = OK
        self.link = link
        self.node = node
        self.bytes = nbytes
        self.tx_start: Optional[float] = None
        self._log = None

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
