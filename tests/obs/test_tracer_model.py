"""The row tracer against the object-graph tracer it replaced.

``tests/obs/tracer_model.py`` keeps the old ``Span``/``SpanContext``/
``Tracer``/``inject``.  Both are driven with the same random
interleaving of span starts under every kind of parent, ``net.link``
hops (rows of their own that the carrier stamps by number: opened at
the claim, then its tx-start, then its end and maybe a drop — one hop
of a transit at a time; in the old world a ``net.link`` child span),
mutators (a hop row read back refuses all; a handle writes through to
its row, or to nothing once the ring or a clear dropped it), tail
flushes, clears and reads; whatever a reader can see must be
text-equal in the two worlds.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import propagation
from repro.obs.sampling import Sampler
from repro.net.topology import Topology
from repro.obs.span import NOOP_SPAN, HopSpan
from repro.obs.tracer import Tracer
from repro.sim import Environment

from tests.lockstep import lockstep
from tests.obs import tracer_model as model

_KEYS = st.sampled_from(["node", "dst", "op", "n"])
_VALUES = st.one_of(st.integers(-3, 3), st.text(max_size=3),
                    st.sampled_from([0.0, -0.0, 1.5, 1e-9]))
_ATTRS = st.dictionaries(_KEYS, _VALUES, max_size=3)
_TIMES = st.sampled_from([0.0, 0.25, 1, 1.0, 2.5e-6, 7.125])
# A carrier stamps a hop with env.now, which is always a float.
_HOP_TIMES = _TIMES.map(float)
_PICK = st.integers(0, 40)
_NAMES = st.sampled_from(["rpc.call", "node.invoke", "net.transmit"])
_PARENTS = st.sampled_from(["span", "dict", "context", "extracted",
                            "noop"])
_STEPS = st.one_of(
    st.tuples(st.just("root"), _NAMES, _TIMES, _ATTRS),
    st.tuples(st.just("child"), _PARENTS, _PICK, _NAMES, _TIMES, _ATTRS),
    st.tuples(st.just("child"), _PARENTS, _PICK, _NAMES, _TIMES, _ATTRS),
    # A carrier parents its transit under the packet's header, if any.
    st.tuples(st.just("transit"), st.sampled_from(["dict", "noop"]), _PICK,
              _TIMES, st.sampled_from(["n0", "n1"]), st.text(max_size=3),
              st.integers(0, 9), st.integers(0, 1500)),
    st.tuples(st.just("hop"), _PICK, _HOP_TIMES, _PICK, st.booleans()),
    st.tuples(st.just("carry"), _PICK, _HOP_TIMES, st.booleans()),
    st.tuples(st.just("carry"), _PICK, _HOP_TIMES, st.booleans()),
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
    """One tracer and the handles of every span it started, in order;
    read after each step if ``read_every_step``, else after a read."""

    def __init__(self, tracer_cls, api, config, read_every_step):
        sampler = None if config["rate"] is None \
            else Sampler(rate=config["rate"], seed=config["seed"])
        self.tracer = tracer_cls(
            sampler=sampler, max_spans=config["max_spans"],
            tail_keep_errors=config["tail"][0], tail_buffer=config["tail"][1])
        self.inject, self.context = api.inject, api.SpanContext
        self.new, self.read_every_step = tracer_cls is Tracer, read_every_step
        self.spans = []         # every span started, retained or not
        self.transits = []      # those a "transit" step started
        # [transit, hop, stage]: 0 opened, 1 sent, 2 ended, 3 dropped
        self.hops = []
        topology = Topology(Environment())
        for a, b in (("n0", "n1"), ("n1", "n2"), ("n0", "n2")):
            topology.add_link(a, b)
        self.links = topology.links()
        self.reading = False

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
        return self.context.from_dict(header[propagation.TRACE_HEADER])

    def step(self, step):
        kind, tracer, new = step[0], self.tracer, self.new
        self.reading = self.read_every_step or kind in ("read", "tail_flush")
        if kind == "root":
            _, name, at, attrs = step
            self.spans.append(tracer.start_span(name, at, **attrs))
        elif kind == "child":
            _, parent, index, name, at, attrs = step
            self.spans.append(tracer.start_span(
                name, at, parent=self.parent(parent, index), **attrs))
        elif kind == "transit":
            _, parent, index, at, src, dst, port, nbytes = step
            parent = self.parent(parent, index) if self.spans \
                and parent == "dict" else None
            self.spans.append(
                tracer.start_transit(at, parent, src, dst, port, nbytes)
                if new else tracer.start_span(
                    "net.transmit", at=at, parent=parent, src=src, dst=dst,
                    port=port, bytes=nbytes))
            self.transits.append(self.spans[-1])
        elif kind == "hop":
            # As the carrier: under a recording transit whose last hop
            # arrived (a transit's hops follow one another).
            _, index, at, pick, from_b = step
            busy = {id(entry[0]) for entry in self.hops if entry[2] != 2}
            transits = [span for span in self.transits
                        if span.is_recording and id(span) not in busy]
            if transits:
                transit = transits[index % len(transits)]
                link = self.links[pick % len(self.links)]
                node = link.b if from_b else link.a
                if new:     # the row's number, or a held hop
                    hop = tracer.open_hop(transit, link, node, at)
                else:
                    hop = tracer.start_span(
                        "net.link", at=at, parent=transit, link=link.label,
                        node=node, bytes=transit.attributes["bytes"])
                for entry in self.hops:
                    if entry[0] is transit:
                        entry[2] = -1       # an earlier hop: done with
                self.hops.append([transit, hop, 0])
        elif kind == "carry":
            _, index, at, dropped = step
            live = [entry for entry in self.hops if entry[2] in (0, 1)]
            if live:
                entry = live[index % len(live)]
                transit, hop = entry[0], entry[1]
                if entry[2] == 0:
                    if new:
                        tracer.hop_sent(hop, at)
                    else:
                        hop.add_event("tx-start", at=at)
                    entry[2] = 1
                else:
                    if new:
                        tracer.hop_ended(hop, at, dropped)
                    else:
                        if dropped:
                            hop.set_status("dropped")
                        hop.finish(at=at)
                    entry[2] = 3 if dropped else 2
        elif kind in ("event", "attr", "status", "finish"):
            if self.spans:
                _mutate(self.spans[step[1] % len(self.spans)], step)
        elif kind == "tail_flush":
            return tracer.tail_flush()
        elif kind == "clear":
            tracer.clear()
        return None

    def observe(self):
        """Everything a reader can see, as text."""
        if not self.reading:
            return {}
        tracer = self.tracer
        return {
            "spans": [json.dumps(span.to_dict()) for span in tracer.spans],
            "counts": (tracer.evicted, tracer.sampled_out,
                       tracer.tail_promoted),
            "headers": [json.dumps(self.inject(span, {"type": "request"}))
                        for span in self.spans],
            # What a span's holder reads, its row kept, evicted or not.
            "handles": [json.dumps(span.to_dict()) for span in self.spans],
            "recording": [span.is_recording for span in self.spans]}


def _mutate(span, step):
    if step[0] == "status":
        span.set_status(step[2])
    elif step[0] == "event":
        span.add_event(step[2], step[3], **step[4])
    elif step[0] == "attr":
        span.set_attribute(step[2], step[3])
    else:
        span.finish(step[2])


@settings(max_examples=250)
@given(config=_CONFIGS, steps=st.lists(_STEPS, min_size=5, max_size=80),
       read_every_step=st.booleans())
@example(   # a held trace whose only non-ok row is a dropped hop
    config={"rate": 0.0, "seed": 0, "max_spans": None,
            "tail": (True, None)},
    steps=[("transit", "noop", 0, 0.0, "n0", "n1", 1, 100),
           ("hop", 0, 0.0, 1, True), ("carry", 0, 0.25, False),
           ("carry", 0, 1.0, True), ("tail_flush",)],
    read_every_step=False)
@example(   # a ring's hop stamped after clear() dropped its row
    config={"rate": None, "seed": 0, "max_spans": 2,
            "tail": (False, None)},
    steps=[("root", "rpc.call", 0.0, {}),
           ("transit", "dict", 0, 0.0, "n0", "", 0, 0),
           ("hop", 0, 0.0, 0, False), ("clear",), ("carry", 0, 0.0, False),
           ("carry", 0, 0.25, True)],
    read_every_step=False)
def test_rows_read_exactly_as_the_object_graph_did(config, steps,
                                                   read_every_step):
    rows = _World(Tracer, propagation, config, read_every_step)
    closing = [("read",), ("tail_flush",)]      # read, flush, read again
    lockstep(rows, _World(model.Tracer, model, config, read_every_step),
             steps, drain=lambda world: closing.pop(0) if closing else None)
    hops = [span for span in rows.tracer.spans if span.name == "net.link"]
    assert all(type(span) is HopSpan for span in hops)
    for hop in hops:
        # What a reader holds is a snapshot: it refuses every write.
        for step in (("event", 0, "x", 1.0, {}), ("attr", 0, "n", 1),
                     ("status", 0, "error"), ("finish", 0, 1.0)):
            with pytest.raises(TypeError):
                _mutate(hop, step)


def _run(config, steps):
    rows = _World(Tracer, propagation, config, True)
    lockstep(rows, _World(model.Tracer, model, config, True), steps)
    return rows


def test_a_handle_outlives_its_ring_evicted_row():
    # The ring drops the first span's row; its handle still reads (and
    # takes) every write, which reaches no row, and the second span's
    # row is untouched by them.
    rows = _run({"rate": None, "seed": 0, "max_spans": 1,
                 "tail": (False, None)},
                [("root", "rpc.call", 0.0, {"n": 1}),
                 ("root", "rpc.call", 0.25, {"n": 1}),
                 ("attr", 0, "op", "x"), ("status", 0, "error"),
                 ("event", 0, "retry", 0.5, {}), ("finish", 0, 1.0),
                 ("finish", 1, 2.5)])
    assert rows.tracer.evicted == 1
    first, second = rows.spans
    assert first.end == 1.0 and first.status == "error"
    [row] = rows.tracer.spans
    assert row.to_dict() == second.to_dict()


def test_a_tail_held_span_promoted_later_writes_through():
    # Held aside by tail sampling, then promoted by its error: writes
    # made after the flush reach its row, as they reached the one
    # object the old tracer kept.
    rows = _run({"rate": 0.0, "seed": 0, "max_spans": None,
                 "tail": (True, None)},
                [("root", "rpc.call", 0.0, {"n": 1}),
                 ("child", "span", 0, "node.invoke", 0.25, {}),
                 ("status", 1, "error"), ("tail_flush",),
                 ("attr", 0, "op", "x"), ("event", 1, "retry", 0.5, {}),
                 ("finish", 1, 1.0), ("finish", 0, 1.25)])
    assert rows.tracer.tail_promoted == 2
    assert [span.to_dict() for span in rows.tracer.spans] \
        == [span.to_dict() for span in rows.spans]
