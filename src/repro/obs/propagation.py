"""Trace-context propagation through packet headers.

The simulated network carries arbitrary header dicts on every
:class:`~repro.net.packet.Packet`; the trace context rides under one
reserved key as a plain ``{"trace_id", "span_id"}`` dict, so it survives
any serialisation the transport applies (it is already JSON-safe).

The head-sampling decision (:mod:`repro.obs.sampling`) travels with the
context as an extra ``"sampled": false`` entry — present *only* for
sampled-out traces, so headers stay byte-identical to the pre-sampling
format whenever no sampler is installed.  Receivers extract the flag via
:meth:`SpanContext.from_dict` and their tracers then skip retention for
the whole remote subtree, keeping sampled traces complete end to end and
unsampled ones free everywhere.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.obs.span import NOOP_SPAN, NoopSpan, Span, SpanContext

#: The packet-header key carrying the trace context.
TRACE_HEADER = "trace"


def inject(span: Union[Span, NoopSpan, SpanContext, None],
           headers: Dict[str, Any]) -> Dict[str, Any]:
    """Write ``span``'s context into ``headers`` (no-op for noop spans)."""
    if span is NOOP_SPAN or span is None:
        return headers
    if isinstance(span, (Span, SpanContext)):
        # A span is its own context: the header is written from its
        # fields, in the one format SpanContext.to_dict defines.
        headers[TRACE_HEADER] = SpanContext.to_dict(span)
    return headers


def extract(headers: Optional[Dict[str, Any]]) -> Optional[SpanContext]:
    """Read a trace context out of packet ``headers``, if present."""
    if not headers:
        return None
    data = headers.get(TRACE_HEADER)
    if not data:
        return None
    return SpanContext.from_dict(data)
