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
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Tuple,
                    TypeVar, Union)

from repro.obs.sampling import Sampler
from repro.obs.span import (NOOP_SPAN, NoopSpan, Span, SpanContext,
                            TransitSpan)

ParentLike = Union[Span, SpanContext, Dict[str, str], None]
SpanT = TypeVar("SpanT", bound=Span)
#: A retained row: a span and -1, or a transit and a hop's index.
Row = Tuple[Span, int]
#: Value types whose equal values read the same (``float`` too, but
#: not zero; see :meth:`Tracer._share`).
_SHAREABLE = frozenset((str, int, bool, type(None)))


class SpanLog:
    """What a tracer retained, oldest first: :attr:`Tracer.spans`.

    A row is a span, or a hop of a transit: ``rows`` holds the span
    (the transit, for a hop) and ``hops`` beside it ``-1`` (the hop's
    record index).  Iterating yields spans, a hop's
    :class:`~repro.obs.span.HopSpan` built as it is reached; ``len``
    builds nothing.  The tracer appends to both columns; under
    ``max_spans`` they are rings of that length.
    """

    __slots__ = ("rows", "hops", "tables")

    def __init__(self, maxlen: Optional[int],
                 tables: List[Sequence[Any]]) -> None:
        if maxlen is None:
            self.rows: Any = []
            self.hops: Any = []
        else:
            self.rows = collections.deque(maxlen=maxlen)
            self.hops = collections.deque(maxlen=maxlen)
        #: The tracer's link tables, which a transit's ``links`` keys.
        self.tables = tables

    def __iter__(self) -> Iterator[Span]:
        tables = self.tables
        for row, hop in zip(self.rows, self.hops):
            yield row if hop < 0 else row.hop(hop, tables[row.links])

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return "<SpanLog rows={}>".format(len(self.rows))


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

    A ``net.link`` hop counts as one span everywhere — in :attr:`spans`,
    the ring, the tail buffer and every counter — though it is kept as
    a record packed into its transit (:meth:`open_hop`).
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
        # Link tables a transit's hop records index, and id -> key.
        self._link_tables: List[Sequence[Any]] = []
        self._link_keys: Dict[int, int] = {}
        self.spans = SpanLog(max_spans, self._link_tables)
        self._rows, self._hops = self.spans.rows, self.spans.hops
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        # Per trace: its held rows, as (span or transit, hop index).
        self._tail_pending: "collections.OrderedDict[str, List[Row]]" = \
            collections.OrderedDict()
        self._tail_pending_spans = 0
        # Trace ids evicted from the tail buffer mid-run.  Later spans
        # of an evicted trace must be discarded too — re-buffering them
        # would let tail_flush() promote a fragment of the trace (the
        # spans that arrived after the eviction) as if it were whole.
        self._tail_evicted: set = set()
        # Attribute sets shared by retained spans, keyed by span name,
        # keys, values and value types (see _share).
        self._sets: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        #: Spans pushed out of the ring buffer.
        self.evicted = 0
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
        kind = type(parent)
        if kind is dict:    # read in place, as SpanContext.from_dict does
            trace_id, parent_id = parent["trace_id"], parent["span_id"]
            sampled = parent.get("sampled", True)
        else:
            if parent is not None and kind is not Span \
                    and kind is not SpanContext:
                parent = _as_context(parent)
            if parent is None:
                trace_id = f"t{next(self._trace_ids)}"
                parent_id = None
                sampled = True if self.sampler is None \
                    else self.sampler.sample(trace_id)
            else:
                trace_id = parent.trace_id
                parent_id = parent.span_id
                sampled = parent.sampled
        if sampled and attributes:
            # A retained span holds the tracer's copy of a repeated set.
            values = attributes.values()
            key = (name, *attributes, *values, *map(type, values))
            try:
                attributes = self._sets[key]
            except KeyError:
                self._share(key, attributes)
            except TypeError:
                pass    # an unhashable value: the set stays the span's
        return self._keep(Span(
            name, trace_id, f"s{next(self._span_ids)}", parent_id, at,
            attributes, sampled, sampled or self.tail_keep_errors))

    def _share(self, key: Tuple[Any, ...],
               attributes: Dict[str, Any]) -> None:
        """Keep ``attributes`` as the shared copy of its set, if no equal
        set of the same value types could read differently: every value
        a ``str``, ``int``, ``bool``, ``None`` or non-zero ``float``
        (``0.0 == -0.0`` and ``(1,) == (1.0,)``, but their JSON is
        not).  The table never outgrows ``max_spans``."""
        for value in attributes.values():
            kind = type(value)
            if kind not in _SHAREABLE and not (kind is float and value):
                return
        if len(self._sets) == self.max_spans:  # never, when unbounded
            self._sets.clear()
        self._sets[key] = attributes

    def start_transit(self, links: Sequence[Any], at: float,
                      header: Optional[Dict[str, Any]], src: str, dst: str,
                      port: int, nbytes: int) -> TransitSpan:
        """Open a packet's ``net.transmit`` span, as :meth:`start_span`
        with ``src=``, ``dst=``, ``port=`` and ``bytes=`` would under
        ``header`` (the trace context the packet carries, or ``None``
        for a new root), for hop records whose link indices point into
        ``links`` (a topology's ``link_order``: items with ``label``,
        ``a`` and ``b``)."""
        key = self._link_keys.get(id(links))
        if key is None:
            key = self._link_keys[id(links)] = len(self._link_tables)
            self._link_tables.append(links)
        if header is None:
            trace_id = f"t{next(self._trace_ids)}"
            parent_id = None
            sampled = True if self.sampler is None \
                else self.sampler.sample(trace_id)
        else:
            trace_id, parent_id = header["trace_id"], header["span_id"]
            sampled = header.get("sampled", True)
        return self._keep(TransitSpan(
            trace_id, f"s{next(self._span_ids)}", parent_id, at, sampled,
            sampled or self.tail_keep_errors, src, dst, port, nbytes, key))

    def open_hop(self, transit: TransitSpan, link: int, from_b: bool,
                 at: float) -> None:
        """Pack one hop of ``transit``'s packet, claimed at ``at``, and
        keep its ``net.link`` row as any span is kept."""
        index = transit.open_hop(next(self._span_ids), link, from_b, at)
        if transit.sampled:     # _keep's first branch, one call fewer
            self._retain(transit, index)
        else:
            self._keep(transit, index)

    def _keep(self, span: SpanT, hop: int = -1) -> SpanT:
        if span.sampled:
            self._retain(span, hop)
        elif self.tail_keep_errors:
            # Record but hold aside: tail_flush() decides the trace's
            # fate once its outcome (ok vs. error/drop) is known.
            self._tail_hold(span, hop)
        else:
            self.sampled_out += 1
        return span

    def _retain(self, span: Span, hop: int = -1) -> None:
        rows = self._rows
        if len(rows) == self.max_spans:    # never, when unbounded
            self.evicted += 1
        rows.append(span)
        self._hops.append(hop)

    def _tail_hold(self, span: Span, hop: int = -1) -> None:
        if span.trace_id in self._tail_evicted:
            # The trace already lost earlier spans to buffer overflow;
            # holding this one would promote a torso without its head.
            self.sampled_out += 1
            return
        trace = self._tail_pending.setdefault(span.trace_id, [])
        trace.append((span, hop))
        self._tail_pending_spans += 1
        while self.tail_buffer is not None \
                and self._tail_pending_spans > self.tail_buffer \
                and len(self._tail_pending) > 1:
            # Overflow: the oldest buffered trace loses its chance.
            trace_id, evicted = self._tail_pending.popitem(last=False)
            self._tail_pending_spans -= len(evicted)
            self.sampled_out += len(evicted)
            self._tail_evicted.add(trace_id)

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
        for rows in self._tail_pending.values():
            keep = any((span.status if hop < 0
                        else span.hop_status(hop)) != "ok"
                       for span, hop in rows)
            if keep and self.max_spans is not None \
                    and len(rows) > self.max_spans:
                keep = False
            if keep:
                for span, hop in rows:
                    self._retain(span, hop)
                promoted += len(rows)
                self.tail_promoted += len(rows)
            else:
                self.sampled_out += len(rows)
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
        self.spans = SpanLog(self.max_spans, self._link_tables)
        self._rows, self._hops = self.spans.rows, self.spans.hops
        self._tail_pending.clear()
        self._tail_pending_spans = 0
        self._tail_evicted.clear()
        self._sets.clear()
        self.evicted = 0
        self.sampled_out = 0
        self.tail_promoted = 0

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
    if isinstance(parent, Span):
        return parent.context
    if isinstance(parent, SpanContext):
        return parent
    if isinstance(parent, dict):
        return SpanContext.from_dict(parent)
    raise TypeError("cannot parent a span under {!r}".format(parent))
