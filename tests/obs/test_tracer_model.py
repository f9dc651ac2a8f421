"""The row tracer against the object-graph tracer it replaced.

``tests/obs/tracer_model.py`` keeps the old ``Span``/``SpanContext``/
``Tracer``/``inject``/``extract``.  Both are driven with the same random
interleaving of span starts under every kind of parent, ``net.link`` hop
rows (filled the way the carrier fills them: ``tx_start``, then ``end``
and maybe a drop), mutators (a hop row refuses all but ``set_status``),
tail flushes, clears and reads; whatever a reader can see must be
text-equal in the two worlds.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import propagation
from repro.obs.sampling import Sampler
from repro.obs.span import NOOP_SPAN, HopSpan
from repro.obs.tracer import Tracer

from tests.obs import tracer_model as model

_KEYS = st.sampled_from(["node", "dst", "op", "n"])
_VALUES = st.one_of(st.integers(-3, 3), st.text(max_size=3),
                    st.sampled_from([0.0, -0.0, 1.5, 1e-9]))
_ATTRS = st.dictionaries(_KEYS, _VALUES, max_size=3)
_TIMES = st.sampled_from([0.0, 0.25, 1, 1.0, 2.5e-6, 7.125])
_PICK = st.integers(0, 40)
_NAMES = st.sampled_from(["rpc.call", "node.invoke", "net.transmit"])
_PARENTS = st.sampled_from(["span", "dict", "context", "extracted",
                            "noop"])
_STEPS = st.one_of(
    st.tuples(st.just("root"), _NAMES, _TIMES, _ATTRS),
    st.tuples(st.just("child"), _PARENTS, _PICK, _NAMES, _TIMES, _ATTRS),
    st.tuples(st.just("child"), _PARENTS, _PICK, _NAMES, _TIMES, _ATTRS),
    st.tuples(st.just("hop"), _PICK, _TIMES, st.text(max_size=4),
              st.sampled_from(["a", "b"]), st.integers(0, 1500)),
    st.tuples(st.just("carry"), _PICK, _TIMES, st.booleans()),
    st.tuples(st.just("carry"), _PICK, _TIMES, st.booleans()),
    st.tuples(st.just("event"), _PICK, st.sampled_from(["retry", "x"]),
              _TIMES, _ATTRS),
    st.tuples(st.just("attr"), _PICK, _KEYS, _VALUES),
    st.tuples(st.just("status"), _PICK,
              st.sampled_from(["ok", "error", "dropped:loss"])),
    st.tuples(st.just("finish"), _PICK, _TIMES),
    st.just(("tail_flush",)),
    st.just(("clear",)),
    st.just(("read",)))
_CONFIGS = st.fixed_dictionaries({
    "rate": st.sampled_from([None, 0.0, 0.5, 1.0]),
    "seed": st.integers(0, 3),
    "max_spans": st.one_of(st.none(), st.integers(1, 20)),
    "tail": st.one_of(st.just((False, None)), st.just((True, None)),
                      st.tuples(st.just(True), st.integers(1, 20)))})


class _World:
    """One tracer and the handles of every span it started, in order."""

    def __init__(self, tracer, inject, extract):
        self.tracer, self.inject, self.extract = tracer, inject, extract
        self.spans = []         # every span started, retained or not
        self.hops = []          # [hop, stage]: 0 opened, 1 sent, 2 ended

    def parent(self, kind, index):
        if kind == "noop" or not self.spans:
            return NOOP_SPAN
        span = self.spans[index % len(self.spans)]
        if kind == "span":
            return span
        if kind == "context":
            return span.context
        header = json.loads(json.dumps(self.inject(span, {})))
        if kind == "dict":
            return header[propagation.TRACE_HEADER]
        return self.extract(header)


def _apply(world, step, new):
    kind, tracer = step[0], world.tracer
    if kind == "root":
        _, name, at, attrs = step
        world.spans.append(tracer.start_span(name, at, **attrs))
    elif kind == "child":
        _, parent, index, name, at, attrs = step
        world.spans.append(tracer.start_span(
            name, at, parent=world.parent(parent, index), **attrs))
    elif kind == "hop":
        # As the carrier: only under a recording transit.
        _, index, at, link, node, nbytes = step
        transits = [span for span in world.spans
                    if span.name != "net.link" and span.is_recording]
        if transits:
            transit = transits[index % len(transits)]
            hop = tracer.start_hop(transit, at, link, node, nbytes) if new \
                else tracer.start_span("net.link", at=at, parent=transit,
                                       link=link, node=node, bytes=nbytes)
            world.spans.append(hop)
            world.hops.append([hop, 0])
    elif kind == "carry":
        _, index, at, dropped = step
        live = [entry for entry in world.hops if entry[1] < 2]
        if live:
            entry = live[index % len(live)]
            hop = entry[0]
            if entry[1] == 0:
                if new:
                    hop.tx_start = at
                else:
                    hop.add_event("tx-start", at=at)
            elif new:
                if dropped:
                    hop.status = "dropped"
                hop.end = at
            else:
                if dropped:
                    hop.set_status("dropped")
                hop.finish(at=at)
            entry[1] += 1
    elif kind in ("event", "attr", "status", "finish"):
        if world.spans:
            span = world.spans[step[1] % len(world.spans)]
            if kind == "status":
                span.set_status(step[2])
            elif span.name != "net.link":
                _mutate(span, step)
            elif new:
                # A hop row holds only what its carrier writes; the
                # object graph's hop took anything and is left alone.
                with pytest.raises(TypeError):
                    _mutate(span, step)
    elif kind == "tail_flush":
        return tracer.tail_flush()
    elif kind == "clear":
        tracer.clear()
    return None


def _mutate(span, step):
    if step[0] == "event":
        span.add_event(step[2], step[3], **step[4])
    elif step[0] == "attr":
        span.set_attribute(step[2], step[3])
    else:
        span.finish(step[2])


def _seen(world):
    """Everything a reader can see, as text."""
    tracer = world.tracer
    return {
        "spans": [json.dumps(span.to_dict()) for span in tracer.spans],
        "counts": (tracer.evicted, tracer.sampled_out, tracer.tail_promoted),
        "headers": [json.dumps(world.inject(span, {"type": "request"}))
                    for span in world.spans],
        "recording": [span.is_recording for span in world.spans],
    }


@settings(max_examples=250, deadline=None)
@given(config=_CONFIGS, steps=st.lists(_STEPS, min_size=5, max_size=80),
       read_every_step=st.booleans())
def test_rows_read_exactly_as_the_object_graph_did(config, steps,
                                                   read_every_step):
    tail_keep_errors, tail_buffer = config["tail"]
    worlds = []
    for tracer_cls, inject, extract in (
            (Tracer, propagation.inject, propagation.extract),
            (model.Tracer, model.inject, model.extract)):
        sampler = None if config["rate"] is None \
            else Sampler(rate=config["rate"], seed=config["seed"])
        worlds.append(_World(tracer_cls(
            sampler=sampler, max_spans=config["max_spans"],
            tail_keep_errors=tail_keep_errors, tail_buffer=tail_buffer),
            inject, extract))
    rows, graph = worlds
    for step in steps:
        assert _apply(rows, step, True) == _apply(graph, step, False)
        if read_every_step or step[0] == "read":
            assert _seen(rows) == _seen(graph)
    assert _seen(rows) == _seen(graph)
    assert rows.tracer.tail_flush() == graph.tracer.tail_flush()
    assert _seen(rows) == _seen(graph)
    assert all(type(span) is HopSpan
               for span in rows.spans if span.name == "net.link")
