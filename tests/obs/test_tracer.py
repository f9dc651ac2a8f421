"""Tracer integrity: span trees across distributed invocations."""

import gc
import json

import pytest

from repro import obs
from repro.net import Network, wan
from repro.node import ODPRuntime
from repro.obs.span import HopSpan, Span
from repro.sim import Environment


@pytest.fixture
def tracer():
    """A fresh recording tracer installed for the duration of the test."""
    with obs.use_tracer(obs.Tracer()) as tracer:
        with obs.use_metrics(obs.MetricsRegistry()):
            yield tracer


@pytest.fixture
def env(tracer):
    """An environment built under the test's tracer, which it keeps."""
    return Environment()


def make_wan_runtime(env):
    topo = wan(env, sites=2, hosts_per_site=1)
    net = Network(env, topo)
    runtime = ODPRuntime(net, registry_node="site0.host0")
    return runtime


def invoke_remotely(env, runtime):
    """One remote incr: site1.host0 -> site0.host0, three links away."""
    server = runtime.nucleus("site0.host0")
    client = runtime.nucleus("site1.host0")
    capsule = server.create_capsule("cap")
    obj = server.create_object(capsule, "counter", state={"n": 0})
    obj.operation("incr", lambda caller, state, args: state.__setitem__(
        "n", state["n"] + args) or state["n"])

    def root(env):
        result = yield client.invoke(obj.oid, "incr", 2)
        return result

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == 2
    return obj


def invoke_trace(tracer):
    """The spans of the (single) node.invoke trace."""
    roots = [s for s in tracer.spans if s.name == "node.invoke"]
    assert len(roots) == 1
    return roots[0], tracer.trace(roots[0].trace_id)


def test_remote_invoke_builds_connected_span_tree(env, tracer):
    runtime = make_wan_runtime(env)
    invoke_remotely(env, runtime)
    root, spans = invoke_trace(tracer)
    by_id = {s.span_id: s for s in spans}
    # Every span in the trace is reachable from the invoke root (each
    # read of the log builds its rows anew: equal, not the same).
    assert root.parent_id is None
    for span in spans:
        node = span
        while node.parent_id is not None:
            node = by_id[node.parent_id]
        assert node.to_dict() == root.to_dict()
    # Caller, network transit and remote execution are all present.
    names = {s.name for s in spans}
    assert {"node.invoke", "rpc.call", "net.transmit",
            "net.link", "rpc.serve"} <= names
    # The WAN route is site1.host0 -> router -> router -> site0.host0:
    # the request alone crosses three links.
    request_hops = [s for s in spans if s.name == "net.link"]
    assert len(request_hops) >= 3


def test_span_timestamps_are_consistent(env, tracer):
    runtime = make_wan_runtime(env)
    invoke_remotely(env, runtime)
    root, spans = invoke_trace(tracer)
    by_id = {s.span_id: s for s in spans}
    for span in spans:
        assert span.end is not None
        assert span.end >= span.start
        if span.parent_id is not None:
            assert span.start >= by_id[span.parent_id].start
    # The remote execution happens strictly inside the caller's window.
    serve = next(s for s in spans if s.name == "rpc.serve")
    assert root.start <= serve.start and serve.end <= root.end


def test_context_survives_packet_transit(env, tracer):
    from repro.net import Topology

    topo = Topology(env)
    topo.add_link("a", "b")
    net = Network(env, topo)
    a, b = net.host("a"), net.host("b")
    parent = tracer.start_span("app.step", at=env.now, node="a")
    headers = obs.inject(parent, {})
    # The context is JSON-serialisable, so it survives any transport
    # serialisation unchanged.
    headers = json.loads(json.dumps(headers))

    def receiver(env):
        packet = yield b.receive()
        return obs.SpanContext.from_dict(packet.headers[obs.TRACE_HEADER])

    proc = env.process(receiver(env))
    a.send("b", payload="x", size=10, headers=headers)
    env.run(proc)
    context = proc.value
    assert context.trace_id == parent.trace_id
    assert context.span_id == parent.span_id
    # The transit span parented itself under the application span.
    transmit = next(s for s in tracer.spans if s.name == "net.transmit")
    assert transmit.trace_id == parent.trace_id
    assert transmit.parent_id == parent.span_id


def test_disabled_tracer_records_nothing():
    env = Environment()
    assert isinstance(env.tracer, obs.NoopTracer)
    runtime = make_wan_runtime(env)
    invoke_remotely(env, runtime)
    assert len(env.tracer) == 0
    span = env.tracer.start_span("anything", at=env.now)
    assert span is obs.NOOP_SPAN
    assert not span.is_recording


def test_chrome_trace_round_trips_through_json(env, tracer, tmp_path):
    runtime = make_wan_runtime(env)
    invoke_remotely(env, runtime)
    path = str(tmp_path / "trace.json")
    count = obs.dump_chrome_trace(path, tracer=tracer)
    assert count > 0
    with open(path) as handle:
        document = json.loads(handle.read())
    events = document["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    # Every recorded span is exported with microsecond timestamps.
    assert len(complete) == len(tracer.spans)
    serve = next(e for e in complete if e["name"] == "rpc.serve")
    assert serve["ts"] >= 0 and serve["dur"] >= 0
    assert serve["args"]["node"] == "site0.host0"
    # Node names become named pseudo-threads.
    threads = [e for e in events if e["ph"] == "M"]
    names = {e["args"]["name"] for e in threads}
    assert "site0.host0" in names and "site1.host0" in names


def test_noop_empties_cannot_carry_state_between_runs():
    # One shared NOOP_SPAN serves every disabled call site in the
    # process: what it reads as must not be writable by any of them.
    with pytest.raises(TypeError):
        obs.NOOP_SPAN.attributes["x"] = 1
    with pytest.raises(AttributeError):
        obs.NOOP_SPAN.events.append({"name": "leak", "at": 0.0})
    with pytest.raises(AttributeError):
        obs.NOOP_TRACER.spans.append(obs.NOOP_SPAN)
    # The disabled flight recorder is shared the same way.
    with pytest.raises(AttributeError):
        obs.NOOP_FLIGHT.epoch_digests.append("leak")
    assert dict(obs.NoopSpan().attributes) == {}
    assert obs.NoopSpan().events == () and len(obs.NOOP_TRACER.spans) == 0
    assert obs.NOOP_FLIGHT.epoch_digests == ()


def _tracked_in(log):
    """The GC-tracked objects reachable from ``log`` (itself included)."""
    seen, stack = {}, [log]
    while stack:
        held = stack.pop()
        if id(held) in seen or not gc.is_tracked(held) \
                or isinstance(held, type):
            continue
        seen[id(held)] = held
        stack.extend(gc.get_referents(held))
    return list(seen.values())


def test_the_collector_never_walks_a_finished_span():
    # A finished span is a row of typed columns: retaining 1 000 more
    # identical ones adds nothing the collector tracks.  One slotted
    # Span per row (and a bytearray per transit) before the columns.
    tracer = obs.Tracer()
    counts = []
    for _ in range(2):
        for _ in range(1000):
            root = tracer.start_span("rpc.call", at=0.5, node="n1", op="hit")
            child = tracer.start_span("net.transmit", at=0.75, parent=root,
                                      src="n1", dst="n2", port=7, bytes=80)
            child.set_status("dropped:loss")
            child.finish(at=1.0)
            root.finish(at=1.25)
        gc.collect()
        counts.append(len(_tracked_in(tracer.spans)))
    assert len(tracer.spans) == 4000
    assert counts[0] == counts[1]


def test_hops_are_records_until_a_reader_asks(env, tracer, tmp_path):
    # A hop is a row of the log's columns, and a span a handle only its
    # callers hold: no HopSpan exists until something reads
    # tracer.spans, len() builds none, and the log holds no Span.
    runtime = make_wan_runtime(env)
    invoke_remotely(env, runtime)
    gc.collect()
    assert not any(type(held) is HopSpan for held in gc.get_objects())
    assert not any(isinstance(held, Span)
                   for held in _tracked_in(tracer.spans))
    hops = sum(link.stats.packets + link.stats.drops
               for link in runtime.network.topology.links())
    assert hops > 0
    # Each hop is one row of the log.
    assert sum(span.name == "net.link" for span in tracer.spans) == hops
    path = str(tmp_path / "run.jsonl")
    obs.dump_jsonl(path, tracer=tracer)
    links = [record for record in obs.load_jsonl(path)
             if record.get("name") == "net.link"]
    assert len(links) == hops
    assert all(record["end"] is not None for record in links)


def test_a_journalled_hop_names_its_transit(tracer):
    # Every hop record of a flight carries the side fields of the
    # packet's net.transmit span, read from that one span.
    recorder = obs.FlightRecorder()
    with obs.use_flight(recorder):
        env = Environment()
    invoke_remotely(env, make_wan_runtime(env))
    recorder.finish()
    hops = [record for record in recorder.ring if record["kind"] == "hop"]
    transits = {span.span_id: span.trace_id for span in tracer.spans
                if span.name == "net.transmit"}
    assert len(hops) == 12
    assert all(record["_op"] == "net.transmit"
               and transits[record["_span"]] == record["_trace"]
               for record in hops)


def test_hop_rows_materialise_on_read(env, tracer):
    runtime = make_wan_runtime(env)
    invoke_remotely(env, runtime)
    hop = next(s for s in tracer.spans if s.name == "net.link")
    record = hop.to_dict()
    assert list(record) == ["name", "trace_id", "span_id", "parent_id",
                            "start", "end", "status", "attributes",
                            "events"]
    assert list(record["attributes"]) == ["link", "node", "bytes"]
    assert record["events"] == [{"name": "tx-start", "at": hop.tx_start}]
    # Built on read: a fresh context each time, equal in value.
    assert hop.context is not hop.context
    assert hop.context.to_dict() == hop.context.to_dict()
    with pytest.raises(TypeError):
        hop.set_attribute("extra", 1)


def test_spans_with_one_attribute_set_share_it_until_one_writes():
    tracer = obs.Tracer()
    first = tracer.start_span("op", at=0.0, node="a", n=1)
    second = tracer.start_span("op", at=0.0, node="a", n=1)
    assert second.attributes is first.attributes
    # Another name, key order or value is another set.
    assert tracer.start_span("other", at=0.0, node="a", n=1).attributes \
        is not first.attributes
    assert tracer.start_span("op", at=0.0, n=1, node="a").attributes \
        is not first.attributes
    second.set_attribute("n", 2)
    second.set_attribute("error", "timeout")
    assert first.attributes == {"node": "a", "n": 1}
    assert second.attributes == {"node": "a", "n": 2, "error": "timeout"}
    assert list(second.to_dict()["attributes"]) == ["node", "n", "error"]
    assert type(first.attributes) is dict
    assert json.loads(json.dumps(first.to_dict()))["attributes"] == {
        "node": "a", "n": 1}


def test_attribute_sets_written_after_start_are_shared():
    # A set written after start joins the table too: two spans that
    # start with one set and take the same write hold one dict, and so
    # do their rows.
    tracer = obs.Tracer()
    first = tracer.start_span("rpc.call", at=0.0, node="a", op="hit")
    second = tracer.start_span("rpc.call", at=0.5, node="a", op="hit")
    for span in (first, second):
        span.set_attribute("error", "timeout")
    assert first.attributes is second.attributes
    assert first.attributes == {"node": "a", "op": "hit", "error": "timeout"}
    rows = list(tracer.spans)
    assert rows[0].attributes is rows[1].attributes is first.attributes


@pytest.mark.parametrize("values", [
    (1, True, 1.0), (0, False, 0.0, -0.0), ((1,), (1.0,), (True,)),
    ("1", 1, None)])
def test_equal_values_of_other_types_or_signs_never_share(values):
    # 1 == True == 1.0 and 0.0 == -0.0, but they dump differently.
    tracer = obs.Tracer()
    for _ in range(2):
        spans = [tracer.start_span("op", at=0.0, v=value)
                 for value in values]
        assert [json.dumps(span.to_dict()["attributes"]) for span in spans] \
            == [json.dumps({"v": value}) for value in values]
        assert [type(span.attributes["v"]) for span in spans] \
            == [type(value) for value in values]


def test_unhashable_attribute_values_are_kept_unshared():
    tracer = obs.Tracer()
    first = tracer.start_span("fault.flap", at=0.0, links=["a<->b"])
    second = tracer.start_span("fault.flap", at=0.0, links=["a<->b"])
    assert first.attributes == second.attributes == {"links": ["a<->b"]}
    assert first.attributes is not second.attributes
    first.set_attribute("links_affected", ["a<->b", "b<->c"])
    assert second.attributes == {"links": ["a<->b"]}
    assert first.to_dict()["attributes"]["links_affected"] == [
        "a<->b", "b<->c"]


def test_the_shared_sets_stay_within_what_the_tracer_retains():
    bounded = obs.Tracer(max_spans=4)
    for index in range(20):
        bounded.start_span("op", at=0.0, seq=index)
        assert len(bounded.spans.set_codes) <= 4
        assert len(bounded.spans.sets) <= 2 * 4
    unsampled = obs.Tracer(sampler=obs.Sampler(rate=0.0))
    unsampled.start_span("op", at=0.0, seq=1)
    assert unsampled.sampled_out == 1 and not unsampled.spans.sets
    tracer = obs.Tracer()
    tracer.start_span("op", at=0.0, seq=1)
    assert tracer.spans.set_codes
    tracer.clear()
    assert not tracer.spans.set_codes
    # After clear() an equal set is a new one, not the cleared span's.
    kept = tracer.start_span("op", at=0.0, seq=2)
    assert tracer.start_span("op", at=0.0, seq=2).attributes \
        is kept.attributes


def test_tracer_context_manager_and_scoping():
    env = Environment()
    tracer = obs.Tracer()
    with obs.use_tracer(tracer):
        with tracer.span("outer", env, node="x") as outer:
            with tracer.span("inner", env, parent=outer) as inner:
                pass
    assert obs.get_tracer() is obs.NOOP_TRACER
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id
    assert outer.end is not None and inner.end is not None
