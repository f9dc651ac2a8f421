"""Tracers: span factories plus the process-wide default.

The default tracer is a :class:`NoopTracer`, so instrumented hot paths in
the simulator cost nothing beyond a method call and never perturb
benchmark output.  Enable collection with::

    from repro import obs

    tracer = obs.enable_tracing()     # installs a recording Tracer
    ... run a simulation ...
    obs.dump_jsonl("run.jsonl", tracer=tracer)

Span ids are small deterministic counters (``t3``/``s17``), so traces are
reproducible run to run — a property the rest of the repo's deterministic
simulations rely on.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
from typing import Any, Dict, List, Optional, Tuple, TypeVar, Union

from repro.obs.sampling import Sampler
from repro.obs.span import NOOP_SPAN, HopSpan, NoopSpan, Span, SpanContext

ParentLike = Union[Span, SpanContext, Dict[str, str], None]
SpanT = TypeVar("SpanT", bound=Span)


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
    """

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
        self.spans = collections.deque(maxlen=max_spans) \
            if max_spans is not None else []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._tail_pending: "collections.OrderedDict[str, List[Span]]" = \
            collections.OrderedDict()
        self._tail_pending_spans = 0
        # Trace ids evicted from the tail buffer mid-run.  Later spans
        # of an evicted trace must be discarded too — re-buffering them
        # would let tail_flush() promote a fragment of the trace (the
        # spans that arrived after the eviction) as if it were whole.
        self._tail_evicted: set = set()
        #: Spans pushed out of the ring buffer.
        self.evicted = 0
        #: Spans discarded by the head sampler (never retained).
        self.sampled_out = 0
        #: Head-sampled-out spans rescued by tail sampling.
        self.tail_promoted = 0

    @property
    def enabled(self) -> bool:
        return True

    def start_span(self, name: str, at: float, parent: ParentLike = None,
                   **attributes: Any) -> Span:
        """Open a span at simulated time ``at``.

        ``parent`` may be another :class:`Span`, a :class:`SpanContext`, a
        plain context dict (as extracted from packet headers) or ``None``
        for a new root.  NoopSpan parents are treated as roots.  The
        kwargs dict becomes the span's ``attributes`` as it is.
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
                    else self.sampler.sample(trace_id, name)
            else:
                trace_id = parent.trace_id
                parent_id = parent.span_id
                sampled = parent.sampled
        return self._keep(Span(
            name, trace_id, f"s{next(self._span_ids)}", parent_id, at,
            attributes, sampled, sampled or self.tail_keep_errors))

    def start_hop(self, parent: Span, at: float, link: str, node: str,
                  nbytes: int) -> HopSpan:
        """Open (and retain, like any span) the ``net.link`` row of one
        hop of ``parent``'s packet; the carrier fills the rest."""
        return self._keep(HopSpan(
            parent.trace_id, f"s{next(self._span_ids)}", parent.span_id,
            at, parent.sampled, link, node, nbytes))

    def _keep(self, span: SpanT) -> SpanT:
        if span.sampled:
            self._retain(span)
        elif self.tail_keep_errors:
            # Record but hold aside: tail_flush() decides the trace's
            # fate once its outcome (ok vs. error/drop) is known.
            self._tail_hold(span)
        else:
            self.sampled_out += 1
        return span

    def _retain(self, span: Span) -> None:
        if len(self.spans) == self.max_spans:    # never, when unbounded
            self.evicted += 1
        self.spans.append(span)

    def _tail_hold(self, span: Span) -> None:
        if span.trace_id in self._tail_evicted:
            # The trace already lost earlier spans to buffer overflow;
            # holding this one would promote a torso without its head.
            self.sampled_out += 1
            return
        trace = self._tail_pending.setdefault(span.trace_id, [])
        trace.append(span)
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

    def finished_spans(self) -> List[Span]:
        """Spans whose :meth:`~repro.obs.span.Span.finish` has run."""
        return [span for span in self.spans if span.end is not None]

    def trace(self, trace_id: str) -> List[Span]:
        """All spans belonging to one trace, in creation order."""
        return [span for span in self.spans if span.trace_id == trace_id]

    def clear(self) -> None:
        self.spans = collections.deque(maxlen=self.max_spans) \
            if self.max_spans is not None else []
        self._tail_pending.clear()
        self._tail_pending_spans = 0
        self._tail_evicted.clear()
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

    @property
    def enabled(self) -> bool:
        return False

    def start_span(self, name: str, at: float, parent: ParentLike = None,
                   **attributes: Any) -> NoopSpan:
        return NOOP_SPAN

    @contextlib.contextmanager
    def span(self, name: str, env, parent: ParentLike = None,
             **attributes: Any):
        yield NOOP_SPAN

    def finished_spans(self) -> List[Span]:
        return []

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
    """The process-wide tracer consulted by instrumentation sites."""
    return _tracer


def set_tracer(tracer: Optional[Union[Tracer, NoopTracer]]
               ) -> Union[Tracer, NoopTracer]:
    """Install ``tracer`` (``None`` disables); returns the previous one."""
    global _tracer
    previous = _tracer
    _tracer = tracer if tracer is not None else NOOP_TRACER
    return previous


def enable_tracing(sampler: Optional[Sampler] = None,
                   max_spans: Optional[int] = None,
                   tail_keep_errors: bool = False,
                   tail_buffer: Optional[int] = None) -> Tracer:
    """Install and return a fresh recording tracer.

    ``sampler`` turns on head-based trace sampling; ``max_spans`` bounds
    retention with a ring buffer; ``tail_keep_errors`` additionally
    rescues head-sampled-out traces that turn out to contain an error
    or drop span (resolve with :meth:`Tracer.tail_flush`;
    ``tail_buffer`` bounds the holding area).  See :class:`Tracer`.
    """
    tracer = Tracer(sampler=sampler, max_spans=max_spans,
                    tail_keep_errors=tail_keep_errors,
                    tail_buffer=tail_buffer)
    set_tracer(tracer)
    return tracer


def disable_tracing() -> None:
    """Restore the zero-cost no-op default."""
    set_tracer(NOOP_TRACER)


@contextlib.contextmanager
def use_tracer(tracer: Union[Tracer, NoopTracer]):
    """Scope ``tracer`` as the process default, restoring on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


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
