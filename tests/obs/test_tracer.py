"""Tracer integrity: span trees across distributed invocations."""

import gc
import json

import pytest

from repro import obs
from repro.net import Network, wan
from repro.node import ODPRuntime
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def tracer():
    """A fresh recording tracer installed for the duration of the test."""
    with obs.use_tracer(obs.Tracer()) as tracer:
        with obs.use_metrics(obs.MetricsRegistry()):
            yield tracer


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
    # Every span in the trace is reachable from the invoke root.
    assert root.parent_id is None
    for span in spans:
        node = span
        while node.parent_id is not None:
            node = by_id[node.parent_id]
        assert node is root
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
        return obs.extract(packet.headers)

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


def test_disabled_tracer_records_nothing(env):
    assert isinstance(obs.get_tracer(), obs.NoopTracer)
    runtime = make_wan_runtime(env)
    invoke_remotely(env, runtime)
    assert len(obs.get_tracer()) == 0
    assert obs.get_tracer().finished_spans() == []
    span = obs.get_tracer().start_span("anything", at=env.now)
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
    assert dict(obs.NoopSpan().attributes) == {}
    assert obs.NoopSpan().events == () and len(obs.NOOP_TRACER.spans) == 0


def test_a_retained_span_is_one_tracked_object(env, tracer):
    # Identity inline, attributes in the kwargs dict (atomic values, so
    # untracked), events only once added, hops as rows: a retained span
    # is itself and nothing else the collector has to walk.  Three
    # (span, context, event list) when each span was an object graph.
    runtime = make_wan_runtime(env)
    invoke_remotely(env, runtime)
    invoke_remotely(env, runtime)
    gc.collect()
    tracked = [1 + sum(1 for held in gc.get_referents(span)
                       if gc.is_tracked(held) and not isinstance(held, type))
               for span in tracer.spans]
    assert len(tracked) >= 20
    assert sum(tracked) / len(tracked) <= 1.0


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


def test_tracer_context_manager_and_scoping(env):
    tracer = obs.Tracer()
    with obs.use_tracer(tracer):
        with tracer.span("outer", env, node="x") as outer:
            with tracer.span("inner", env, parent=outer) as inner:
                pass
    assert obs.get_tracer() is obs.NOOP_TRACER
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id
    assert outer.end is not None and inner.end is not None
