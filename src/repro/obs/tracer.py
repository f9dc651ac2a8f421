"""Tracers: span factories plus the process-wide default.

The default tracer is a :class:`NoopTracer`, so instrumented hot paths in
the simulator cost nothing beyond a method call and never perturb
benchmark output.  Collect by scoping a recording :class:`Tracer`
(:func:`use_tracer` restores the one before on exit)::

    from repro import obs

    with obs.use_tracer(obs.Tracer()) as tracer:
        ... build and run a simulation (its env keeps the tracer) ...
    obs.dump_jsonl("run.jsonl", tracer=tracer)

Span ids are small deterministic counters (``t3``/``s17``), so traces are
reproducible run to run — a property the rest of the repo's deterministic
simulations rely on.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import struct
from array import array
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.sampling import Sampler
from repro.obs.span import (DROPPED, NOOP_SPAN, OK, HopSpan, NoopSpan,
                            Number, Span, SpanContext, TraceHeader, number)

ParentLike = Union[Span, SpanContext, Dict[str, str], None]
#: Value types whose equal values read the same (``float`` too, but
#: not zero; see :meth:`SpanLog.share`).
_SHAREABLE = frozenset((str, int, bool, type(None)))
_UNSET = float("nan")
#: What a row holds from its start on, little-endian and unpadded: the
#: span, trace and parent numbers; the start time; the name and
#: attribute set codes, the status code and whether the trace was
#: sampled.  ``_SET`` and ``_STATUS`` are the offsets of two codes.
_ROW = struct.Struct("<qqqdIIHB")
_WIDTH = _ROW.size
_PACK_ROW = _ROW.pack_into
_SET, _STATUS = 36, 40
_PACK_SET = struct.Struct("<I").pack_into
_PACK_STATUS = struct.Struct("<H").pack_into
_UNPACK_SET = struct.Struct("<I").unpack_from
#: A row's times, by field (``odd``'s keys): start, end and tx-start.
_START, _END, _TX = range(3)
#: The name code of a carrier's hop row (a ``start_span("net.link")``
#: gets a code of its own, and reads as a span).
_HOP = 0
#: The marker that opens a hop's key in the attribute set table.
_HOP_KEY = "net.link"
#: Rows the columns grow by at a time, their times unset.
_BLOCK = 4096
_UNSET_BLOCK = array("d", [_UNSET]) * _BLOCK


class SpanLog:
    """What a tracer retained, oldest first: :attr:`Tracer.spans`.

    A row is a span or a carrier's hop, kept in typed columns the
    garbage collector never walks: a fixed-width record (:data:`_ROW`)
    in ``rows``, a ``bytearray``, and the two times written after the
    row opens in ``ends`` and ``txs``, float arrays its writers index:

    - the span, trace and parent numbers (see
      :func:`~repro.obs.span.number`): an id from elsewhere is ``-k``,
      the ``k``-th of ``texts``, and no parent is 0;
    - the start, end and tx-start (a hop's) times: NaN while unset, or
      when the time is not a float, which ``odd`` then keeps by
      ``(row, field)``;
    - codes into this log's tables of names, attribute sets
      (:meth:`share`) and statuses, and whether the trace was sampled.

    A span's events live in ``events`` by row.  Rows are numbered from
    the tracer's first; under ``max_spans`` the records are a ring, and
    a write to a row that left it (or a cleared log) goes nowhere.

    Iterating builds each row as it is reached: a
    :class:`~repro.obs.span.Span` bound to its row (its mutators write
    through), or a :class:`~repro.obs.span.HopSpan` snapshot.  ``len``
    builds nothing.  Only the tracer and its spans write here.
    """

    __slots__ = ("rows", "ends", "txs", "room", "ring", "base", "total",
                 "names", "name_codes", "sets", "set_codes", "statuses",
                 "status_codes", "texts", "text_codes", "events", "odd")

    def __init__(self, ring: Optional[int], base: int = 0) -> None:
        self.rows = bytearray()
        self.ends = array("d")
        self.txs = array("d")
        #: Rows the columns have room for.
        self.room = 0
        self.ring = ring or 0
        #: The number of this log's first row, and of its next.
        self.base = self.total = base
        self.names = ["net.link"]
        self.name_codes: Dict[str, int] = {}
        #: Attribute sets by code; ``set_codes`` finds a shared one by
        #: its key (:meth:`share`).
        self.sets: List[Dict[str, Any]] = []
        self.set_codes: Dict[Tuple[Any, ...], int] = {}
        self.statuses = [OK, DROPPED]
        self.status_codes = {OK: 0, DROPPED: 1}
        self.texts: List[Any] = []
        self.text_codes: Dict[Any, int] = {}
        self.events: Dict[int, List[Dict[str, Any]]] = {}
        self.odd: Dict[Tuple[int, int], Any] = {}

    # -- writing ------------------------------------------------------------

    def open(self, span: Span, code: Optional[int] = None) -> None:
        """Append the row of ``span`` as it starts (open, ``ok`` and
        without events), which it writes through from then on.
        ``code`` is its attribute set's, when the caller shared it
        already; else the span takes the table's equal set, if
        shared."""
        if code is None:
            attributes = span.attributes
            values = attributes.values()
            key = (span.name, *attributes, *values, *map(type, values))
            try:
                code = self.set_codes.get(key)
            except TypeError:   # an unhashable value: never shared
                pass
            if code is None:
                code = self.add_set(key, attributes)
            span.attributes = self.sets[code]
        name = self.name_codes.get(span.name)
        if name is None:
            name = self._intern(self.names, self.name_codes, span.name)
        row = self.total
        self.total = row + 1
        trace, parent, start = span.trace_no, span.parent_no, span.start
        if trace.__class__ is not int:
            trace = self._text(trace)
        if parent is None:
            parent = 0
        elif parent.__class__ is not int:
            parent = self._text(parent)
        if start.__class__ is not float or start != start:
            start = self._time(row, _START, start)
        pos = row - self.base
        if self.ring or pos >= self.room:
            pos = self._place(row)
        _PACK_ROW(self.rows, pos * _WIDTH, span.span_no, trace, parent, start,
                  name, code, 0, span.sampled)
        span._log, span._row = self, row

    def hop(self, trace: Number, span_no: int, transit: int, sampled: bool,
            link: str, node: str, nbytes: int, at: float) -> int:
        """Append the row of hop ``span_no`` of an ``nbytes`` packet,
        under its transit's span number ``transit``, that ``link``'s
        channel claimed from ``node`` at ``at``; returns its number,
        which the carrier stamps it by."""
        row = self.total
        self.total = row + 1
        if trace.__class__ is not int:
            trace = self._text(trace)
        if at.__class__ is not float or at != at:
            at = self._time(row, _START, at)
        key = (_HOP_KEY, link, node, nbytes, nbytes.__class__)
        try:
            code = self.set_codes.get(key)
        except TypeError:       # an unhashable value: never shared
            code = None
        if code is None:
            code = self.add_set(key, {"link": link, "node": node,
                                      "bytes": nbytes})
        pos = row - self.base
        if self.ring or pos >= self.room:
            pos = self._place(row)
        _PACK_ROW(self.rows, pos * _WIDTH, span_no, trace, transit, at, _HOP,
                  code, 0, sampled)
        return row

    def _place(self, row: int) -> int:
        """Make room for new row ``row``; returns its index.  A full
        ring's new row takes the place of the one ``ring`` before."""
        pos = row - self.base
        ring = self.ring
        if ring and pos >= ring:
            gone = row - ring
            if self.events:
                self.events.pop(gone, None)
            if self.odd:
                for field in (_START, _END, _TX):
                    self.odd.pop((gone, field), None)
            pos %= ring
            self.ends[pos] = self.txs[pos] = _UNSET
        elif pos >= self.room:
            grow = min(_BLOCK, ring - self.room) if ring else _BLOCK
            self.rows += bytes(grow * _WIDTH)
            self.ends += _UNSET_BLOCK[:grow]
            self.txs += _UNSET_BLOCK[:grow]
            self.room += grow
        return pos

    def _compact(self) -> None:
        """Drop the attribute sets no row uses, renumbering the rest."""
        rows, sets, kept = self.rows, [], {}
        for offset in range(_SET, len(self) * _WIDTH, _WIDTH):
            code, = _UNPACK_SET(rows, offset)
            new = kept.get(code)
            if new is None:
                new = kept[code] = len(sets)
                sets.append(self.sets[code])
            _PACK_SET(rows, offset, new)
        self.sets = sets
        self.set_codes = {key: kept[code]
                          for key, code in self.set_codes.items()
                          if code in kept}

    def share(self, key: Tuple[Any, ...], attributes: Dict[str, Any]) -> int:
        """The code of ``attributes``, whose key is ``key``: the table's
        equal set, or a new entry.  A key is the span's name, its keys
        in order, their values and the values' types; a transit's
        ``(src, dst, port, bytes)`` and the last two's types; or a hop's
        ``(_HOP_KEY, link, node, bytes, type)``: lengths that never
        meet."""
        try:
            code = self.set_codes.get(key)
        except TypeError:       # an unhashable value: never shared
            code = None
        return self.add_set(key, attributes) if code is None else code

    def add_set(self, key: Tuple[Any, ...],
                attributes: Dict[str, Any]) -> int:
        """A new entry for ``attributes``, which ``set_codes`` does not
        hold.  It joins ``set_codes`` only if no equal set of the same
        value types could read differently: every value a ``str``,
        ``int``, ``bool``, ``None`` or non-zero ``float`` (``0.0 ==
        -0.0`` and ``(1,) == (1.0,)``, but their JSON is not).  Under
        ``max_spans`` ``set_codes`` never outgrows the ring, and
        ``sets`` never twice it."""
        if self.ring and len(self.sets) >= 2 * self.ring:
            self._compact()
        code = len(self.sets)
        self.sets.append(attributes)
        for value in attributes.values():
            kind = type(value)
            if kind not in _SHAREABLE and not (kind is float and value):
                return code
        if len(self.set_codes) == self.ring:    # never, when unbounded
            self.set_codes.clear()
        self.set_codes[key] = code
        return code

    def _text(self, text: Any) -> int:
        return -1 - self._intern(self.texts, self.text_codes, text)

    @staticmethod
    def _intern(table: List[Any], codes: Dict[Any, int], value: Any) -> int:
        """``value``'s index in ``table``, added if new."""
        code = codes.get(value)
        if code is None:
            code = codes[value] = len(table)
            table.append(value)
        return code

    def _time(self, row: int, field: int, value: Any) -> float:
        """The record's form of a time: a float as itself, NaN for
        ``None`` and for any other value, which ``odd`` keeps."""
        if value.__class__ is float and value == value:
            return value
        if value is not None:
            self.odd[row, field] = value
        return _UNSET

    def _slot(self, row: int) -> int:
        """Row ``row``'s place in the columns, or -1 once it is gone."""
        pos = row - self.base
        if pos < 0 or self.ring and self.total - row > self.ring:
            return -1
        return pos % self.ring if self.ring else pos

    def set_time(self, row: int, field: int, at: Any) -> None:
        """Stamp row ``row``'s end (``_END``) or tx-start (``_TX``)."""
        pos = self._slot(row)
        if pos >= 0:
            (self.ends if field == _END else self.txs)[pos] = \
                self._time(row, field, at)

    def set_status(self, row: int, status: str) -> None:
        pos = self._slot(row)
        if pos >= 0:
            _PACK_STATUS(self.rows, pos * _WIDTH + _STATUS, self._intern(
                self.statuses, self.status_codes, status))

    def set_attributes(self, row: int, name: str,
                       attributes: Dict[str, Any]) -> Dict[str, Any]:
        """Give row ``row`` ``attributes``; returns the set it holds."""
        if self._slot(row) < 0:
            return attributes
        values = attributes.values()
        code = self.share((name, *attributes, *values, *map(type, values)),
                          attributes)
        # After share(), which may have moved the ring's codes.
        _PACK_SET(self.rows, self._slot(row) * _WIDTH + _SET, code)
        return self.sets[code]

    def set_events(self, row: int, events: List[Dict[str, Any]]) -> None:
        if self._slot(row) >= 0:
            self.events[row] = events

    # -- reading ------------------------------------------------------------

    def __iter__(self) -> Iterator[Span]:
        rows, ends, txs, texts, odd = \
            self.rows, self.ends, self.txs, self.texts, self.odd
        ring, base, unpack = self.ring, self.base, _ROW.unpack_from
        for row in range(self.total - len(self), self.total):
            pos = (row - base) % ring if ring else row - base
            span_no, trace, parent, start, name, code, status, sampled = \
                unpack(rows, pos * _WIDTH)
            if trace < 0:
                trace = texts[-trace - 1]
            parent = parent if parent > 0 else None if parent == 0 \
                else texts[-parent - 1]
            if start != start:      # NaN: a time that is no float
                start = odd.get((row, _START))
            attributes = self.sets[code]
            if name == _HOP:
                span: Span = HopSpan(
                    trace, span_no, parent, start, bool(sampled),
                    attributes["link"], attributes["node"],
                    attributes["bytes"])
                tx_start = txs[pos]
                span.tx_start = tx_start if tx_start == tx_start \
                    else odd.get((row, _TX))
            else:
                span = Span(self.names[name], trace, span_no, parent, start,
                            attributes, bool(sampled))
                span.events = self.events.get(row, ())
                span._log, span._row = self, row
            end = ends[pos]
            span.end = end if end == end else odd.get((row, _END))
            span.status = self.statuses[status]
            yield span

    def __len__(self) -> int:
        count = self.total - self.base
        return count if not self.ring or count < self.ring else self.ring

    @property
    def evicted(self) -> int:
        """Rows the ring pushed out."""
        return self.total - self.base - len(self)

    def __repr__(self) -> str:
        return "<SpanLog rows={}>".format(len(self))


class Tracer:
    """Creates and retains spans; one instance per collection scope.

    ``sampler`` enables head-based trace sampling: the keep/drop decision
    is made once per trace, when its root span starts, and inherited by
    every descendant (including remote ones, via the propagated context).
    Unsampled spans are created but never retained, so a huge workload
    traced at rate *r* pays O(r) trace memory.

    ``max_spans`` bounds retention with a ring buffer: once full, the
    oldest span is evicted per new span (``evicted`` counts them), so
    memory stays bounded even at rate 1.0.

    A span is retained as a row of :attr:`spans` when it starts; the
    tracer keeps no ``Span`` object (one held for tail sampling waits
    in the tail buffer).  A ``net.link`` hop is a row of its own that
    the carrier opens (:meth:`open_hop`) and stamps by its number
    (:meth:`hop_sent`, :meth:`hop_ended`); it counts as one span
    everywhere: in :attr:`spans`, the ring, the tail buffer and every
    counter.
    """

    enabled = True

    def __init__(self, sampler: Optional[Sampler] = None,
                 max_spans: Optional[int] = None,
                 tail_keep_errors: bool = False,
                 tail_buffer: Optional[int] = None) -> None:
        _require_size("max_spans", max_spans)
        _require_size("tail_buffer", tail_buffer)
        if tail_buffer is not None and not tail_keep_errors:
            raise ValueError("tail_buffer bounds the tail-sampling buffer; "
                             "it needs tail_keep_errors=True")
        self.sampler = sampler
        self.max_spans = max_spans
        #: Tail-based sampling: when on, head-sampled-out spans are
        #: buffered per trace instead of discarded; :meth:`tail_flush`
        #: promotes any buffered trace containing a non-ok span (error,
        #: drop) into :attr:`spans` and discards the rest.  Off by
        #: default — runs that never opt in are byte-identical.
        self.tail_keep_errors = tail_keep_errors
        self.tail_buffer = tail_buffer
        #: What it retained (and, under ``max_spans``, how many of
        #: those the ring pushed out: :attr:`evicted`).
        self.spans = SpanLog(max_spans)
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        # Per trace number: its held spans and hops.
        self._tail_pending: "collections.OrderedDict[Number, List[Span]]" = \
            collections.OrderedDict()
        self._tail_pending_spans = 0
        # Trace ids evicted from the tail buffer mid-run.  Later spans
        # of an evicted trace must be discarded too — re-buffering them
        # would let tail_flush() promote a fragment of the trace (the
        # spans that arrived after the eviction) as if it were whole.
        self._tail_evicted: set = set()
        #: Spans discarded by the head sampler (never retained).
        self.sampled_out = 0
        #: Head-sampled-out spans rescued by tail sampling.
        self.tail_promoted = 0

    def start_span(self, name: str, at: float, parent: ParentLike = None,
                   **attributes: Any) -> Span:
        """Open a span at simulated time ``at``.

        ``parent`` may be another :class:`Span`, a :class:`SpanContext`, a
        plain context dict (as extracted from packet headers) or ``None``
        for a new root.  NoopSpan parents are treated as roots.  The
        kwargs dict becomes the span's ``attributes``, unless the span
        is retained and the tracer holds an equal set already — same
        name, keys in the same order, equal values of the same types —
        which it then shares.
        """
        kind = parent.__class__
        if kind is Span:
            trace, parent_no = parent.trace_no, parent.span_no
            sampled = parent.sampled
        elif kind is TraceHeader:
            trace, parent_no = parent.trace_no, parent.span_no
            sampled = parent.get("sampled", True)
        elif kind is dict:  # read in place, as SpanContext.from_dict does
            trace = number(parent["trace_id"], "t")
            parent_no = number(parent["span_id"], "s")
            sampled = parent.get("sampled", True)
        elif isinstance(parent, Span):
            trace, parent_no = parent.trace_no, parent.span_no
            sampled = parent.sampled
        else:
            if parent is not None and kind is not SpanContext:
                parent = _as_context(parent)
            if parent is None:
                trace, parent_no, sampled = self._root()
            else:
                trace = number(parent.trace_id, "t")
                parent_no = number(parent.span_id, "s")
                sampled = parent.sampled
        span = Span(name, trace, next(self._span_ids), parent_no, at,
                    attributes, sampled, sampled or self.tail_keep_errors)
        if sampled:     # _keep's first branch, one call fewer
            self.spans.open(span)
        else:
            self._keep(span)
        return span

    def _root(self) -> Tuple[int, None, bool]:
        trace = next(self._trace_ids)
        return trace, None, True if self.sampler is None \
            else self.sampler.sample(f"t{trace}")

    def start_transit(self, at: float, header: Optional[Dict[str, Any]],
                      src: str, dst: str, port: int, nbytes: int) -> Span:
        """Open a packet's ``net.transmit`` span, as :meth:`start_span`
        with ``src=``, ``dst=``, ``port=`` and ``bytes=`` would under
        ``header`` (the trace context the packet carries, or ``None``
        for a new root)."""
        if header is None:
            trace, parent, sampled = self._root()
        elif header.__class__ is TraceHeader:
            trace, parent = header.trace_no, header.span_no
            sampled = header.get("sampled", True)
        else:
            trace = number(header["trace_id"], "t")
            parent = number(header["span_id"], "s")
            sampled = header.get("sampled", True)
        if not sampled:
            return self._keep(Span(
                "net.transmit", trace, next(self._span_ids), parent, at,
                {"src": src, "dst": dst, "port": port, "bytes": nbytes},
                False, self.tail_keep_errors))
        log = self.spans
        key = (src, dst, port, nbytes, port.__class__, nbytes.__class__)
        code = log.set_codes.get(key)
        if code is None:
            code = log.add_set(key, {"src": src, "dst": dst, "port": port,
                                     "bytes": nbytes})
        span = Span("net.transmit", trace, next(self._span_ids), parent, at,
                    log.sets[code])
        log.open(span, code)
        return span

    def open_hop(self, transit: Span, link: Any, node: str,
                 at: float) -> Union[int, HopSpan]:
        """Open a hop of ``transit``'s packet over ``link`` (an item with
        a ``label``) from ``node``, claimed at ``at``, and keep its
        ``net.link`` row as any span is kept.  Returns what the carrier
        stamps it by: its row number, or the hop itself while it waits
        for tail sampling."""
        span_no = next(self._span_ids)
        if transit.sampled:     # _keep's first branch, as a row only
            return self.spans.hop(transit.trace_no, span_no, transit.span_no,
                                  True, link.label, node,
                                  transit.attributes["bytes"], at)
        hop = HopSpan(transit.trace_no, span_no, transit.span_no, at,
                      transit.sampled, link.label, node,
                      transit.attributes["bytes"])
        self._keep(hop)
        return hop

    def hop_sent(self, hop: Union[int, HopSpan], at: float) -> None:
        """Stamp hop ``hop``'s tx-start (its channel grant)."""
        if hop.__class__ is int:
            log = self.spans
            pos = hop - log.base
            if log.ring or pos < 0 or at.__class__ is not float \
                    or at != at:
                log.set_time(hop, _TX, at)
            else:
                log.txs[pos] = at
        else:
            hop.tx_start = at
            if hop._log is not None:
                hop._log.set_time(hop._row, _TX, at)

    def hop_ended(self, hop: Union[int, HopSpan], at: float,
                  dropped: bool = False) -> None:
        """Stamp hop ``hop``'s end, and whether it dropped there."""
        if hop.__class__ is int:
            log = self.spans
            pos = hop - log.base
            if not (log.ring or pos < 0 or dropped
                    or at.__class__ is not float or at != at):
                log.ends[pos] = at
                return
        else:
            hop.end = at
            if dropped:
                hop.status = DROPPED
            log = hop._log
            if log is None:
                return
            hop = hop._row
        log.set_time(hop, _END, at)
        if dropped:
            log.set_status(hop, DROPPED)

    def _keep(self, span: Span) -> Span:
        if span.sampled:
            self.spans.open(span)
        elif self.tail_keep_errors:
            # Record but hold aside: tail_flush() decides the trace's
            # fate once its outcome (ok vs. error/drop) is known.
            self._tail_hold(span)
        else:
            self.sampled_out += 1
        return span

    def _retain(self, span: Span) -> None:
        """Append the row of ``span``, promoted from the tail buffer as
        it reads now, which it writes through from then on."""
        log = self.spans
        if span.__class__ is HopSpan:
            row = log.hop(span.trace_no, span.span_no, span.parent_no,
                          span.sampled, span.link, span.node, span.bytes,
                          span.start)
            if span.tx_start is not None:
                log.set_time(row, _TX, span.tx_start)
            span._log, span._row = log, row
        else:
            log.open(span)
            if span.events:
                log.set_events(span._row, span.events)
        if span.end is not None:
            log.set_time(span._row, _END, span.end)
        if span.status != OK:
            log.set_status(span._row, span.status)

    def _tail_hold(self, span: Span) -> None:
        if span.trace_no in self._tail_evicted:
            # The trace already lost earlier spans to buffer overflow;
            # holding this one would promote a torso without its head.
            self.sampled_out += 1
            return
        trace = self._tail_pending.setdefault(span.trace_no, [])
        trace.append(span)
        self._tail_pending_spans += 1
        while self.tail_buffer is not None \
                and self._tail_pending_spans > self.tail_buffer \
                and len(self._tail_pending) > 1:
            # Overflow: the oldest buffered trace loses its chance.
            trace_no, evicted = self._tail_pending.popitem(last=False)
            self._tail_pending_spans -= len(evicted)
            self.sampled_out += len(evicted)
            self._tail_evicted.add(trace_no)

    def tail_flush(self) -> int:
        """Resolve the tail-sampling buffer; returns spans promoted.

        Buffered traces containing at least one non-``ok`` span (an
        error or a packet drop) are promoted into :attr:`spans` in
        buffering order; fully healthy traces are discarded (counted in
        :attr:`sampled_out`, exactly as if the head decision had stood).
        Promotion is all-or-nothing: a trace larger than ``max_spans``
        (which could only ever land truncated, evicting its own root
        out of the ring) is discarded whole rather than half-promoted.
        Call after a workload settles — typically right before export.
        """
        promoted = 0
        for spans in self._tail_pending.values():
            keep = any(span.status != OK for span in spans)
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

    @contextlib.contextmanager
    def span(self, name: str, env, parent: ParentLike = None,
             **attributes: Any):
        """Context manager: open at ``env.now``, finish at exit."""
        span = self.start_span(name, at=env.now, parent=parent,
                               **attributes)
        try:
            yield span
        finally:
            span.finish(at=env.now)

    def trace(self, trace_id: str) -> List[Span]:
        """All spans belonging to one trace, in creation order."""
        return [span for span in self.spans if span.trace_id == trace_id]

    def clear(self) -> None:
        # Row numbers go on from the cleared log's, so a write to one
        # of its rows finds no row here.
        self.spans = SpanLog(self.max_spans, self.spans.total)
        self._tail_pending.clear()
        self._tail_pending_spans = 0
        self._tail_evicted.clear()
        self.sampled_out = 0
        self.tail_promoted = 0

    @property
    def evicted(self) -> int:
        """Spans pushed out of the ring buffer."""
        return self.spans.evicted

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return "<Tracer spans={}{}{}>".format(
            len(self.spans),
            " sampler={!r}".format(self.sampler) if self.sampler else "",
            " evicted={}".format(self.evicted) if self.evicted else "")


class NoopTracer:
    """The disabled tracer: records nothing, allocates nothing."""

    enabled = False
    spans: Tuple[Span, ...] = ()
    sampler: Optional[Sampler] = None
    max_spans: Optional[int] = None
    evicted = 0
    sampled_out = 0
    tail_keep_errors = False
    tail_buffer: Optional[int] = None
    tail_promoted = 0

    def tail_flush(self) -> int:
        return 0

    def start_span(self, name: str, at: float, parent: ParentLike = None,
                   **attributes: Any) -> NoopSpan:
        return NOOP_SPAN

    @contextlib.contextmanager
    def span(self, name: str, env, parent: ParentLike = None,
             **attributes: Any):
        yield NOOP_SPAN

    def trace(self, trace_id: str) -> List[Span]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "<NoopTracer>"


#: The shared disabled tracer (the process default).
NOOP_TRACER = NoopTracer()

_tracer: Union[Tracer, NoopTracer] = NOOP_TRACER


def get_tracer() -> Union[Tracer, NoopTracer]:
    """The ambient tracer, which an ``Environment`` binds when built."""
    return _tracer


@contextlib.contextmanager
def use_tracer(tracer: Union[Tracer, NoopTracer]):
    """Scope ``tracer`` as the process default, restoring on exit."""
    global _tracer
    previous, _tracer = _tracer, tracer
    try:
        yield tracer
    finally:
        _tracer = previous


def _require_size(name: str, value: Optional[int]) -> None:
    """A bound is ``None`` or a positive int; ``True`` is not one."""
    if value is not None and (isinstance(value, bool)
                              or not isinstance(value, int) or value <= 0):
        raise ValueError("{} must be a positive integer, got {!r}".format(
            name, value))


def _as_context(parent: ParentLike) -> Optional[SpanContext]:
    if parent is None or isinstance(parent, NoopSpan):
        return None
    if isinstance(parent, SpanContext):
        return parent
    if isinstance(parent, dict):
        return SpanContext.from_dict(parent)
    raise TypeError("cannot parent a span under {!r}".format(parent))
