"""Deterministic head sampling: decisions, propagation, retention."""

import json

import pytest

from repro import obs
from repro.net import Network, wan
from repro.node import ODPRuntime
from repro.obs.sampling import Sampler
from repro.sim import Environment


def sampled_ids(rate, seed, trace_ids):
    sampler = Sampler(rate=rate, seed=seed)
    return {t for t in trace_ids if sampler.sample(t)}


class TestSamplerDecisions:

    def test_same_seed_and_rate_give_identical_sets(self):
        ids = ["t{}".format(i) for i in range(200)]
        assert sampled_ids(0.3, 7, ids) == sampled_ids(0.3, 7, ids)

    def test_different_seeds_give_different_sets(self):
        ids = ["t{}".format(i) for i in range(200)]
        assert sampled_ids(0.3, 7, ids) != sampled_ids(0.3, 8, ids)

    def test_rate_one_keeps_everything_rate_zero_nothing(self):
        ids = ["t{}".format(i) for i in range(50)]
        assert sampled_ids(1.0, 0, ids) == set(ids)
        assert sampled_ids(0.0, 0, ids) == set()

    def test_lower_rate_set_is_subset_of_higher(self):
        # fraction() is rate-independent, so raising the rate only adds
        # traces — sampled data at 10% stays valid when re-run at 50%.
        ids = ["t{}".format(i) for i in range(300)]
        assert sampled_ids(0.2, 3, ids) <= sampled_ids(0.6, 3, ids)

    def test_sampled_share_tracks_rate(self):
        ids = ["t{}".format(i) for i in range(2000)]
        share = len(sampled_ids(0.25, 5, ids)) / len(ids)
        assert 0.18 < share < 0.32

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match=r"^rate must"):
            Sampler(rate=1.5)
        with pytest.raises(ValueError, match=r"^rate must"):
            Sampler(rate=-1)


class TestTracerSampling:

    def test_unsampled_root_and_children_are_not_retained(self):
        tracer = obs.Tracer(sampler=Sampler(rate=0.0, seed=0))
        env = Environment()
        root = tracer.start_span("root", at=env.now)
        child = tracer.start_span("child", at=env.now, parent=root)
        root.finish(at=1.0)
        child.finish(at=1.0)
        assert len(tracer.spans) == 0
        assert tracer.sampled_out == 2
        assert not root.is_recording
        # The context still propagates (children inherit the decision).
        assert child.trace_id == root.trace_id
        assert not child.context.sampled

    def test_sampled_decision_is_inherited_by_descendants(self):
        tracer = obs.Tracer(sampler=Sampler(rate=1.0, seed=0))
        root = tracer.start_span("root", at=0.0)
        child = tracer.start_span("child", at=0.0, parent=root)
        assert root.context.sampled and child.context.sampled
        assert len(tracer.spans) == 2

    def test_ring_buffer_bounds_memory_and_counts_evictions(self):
        tracer = obs.Tracer(max_spans=10)
        for i in range(25):
            tracer.start_span("s{}".format(i), at=float(i))
        assert len(tracer.spans) == 10
        assert tracer.evicted == 15
        assert [s.name for s in tracer.spans] == \
            ["s{}".format(i) for i in range(15, 25)]

    def test_clear_resets_counters(self):
        tracer = obs.Tracer(sampler=Sampler(rate=0.0), max_spans=5)
        tracer.start_span("a", at=0.0)
        tracer.clear()
        assert tracer.sampled_out == 0 and tracer.evicted == 0


class TestHeaderPropagation:

    def test_sampled_context_serialises_exactly_as_before_sampling(self):
        # The byte-identity contract: a sampled (default) context must
        # not grow a "sampled" key, so runs without a sampler produce
        # headers identical to pre-sampling builds.
        context = obs.SpanContext("t1", "s1")
        assert context.to_dict() == {"trace_id": "t1", "span_id": "s1"}

    def test_unsampled_context_round_trips_through_headers(self):
        context = obs.SpanContext("t1", "s1", sampled=False)
        data = json.loads(json.dumps(context.to_dict()))
        restored = obs.SpanContext.from_dict(data)
        assert restored.sampled is False
        assert (restored.trace_id, restored.span_id) == ("t1", "s1")

    def test_missing_sampled_key_defaults_to_true(self):
        restored = obs.SpanContext.from_dict(
            {"trace_id": "t9", "span_id": "s9"})
        assert restored.sampled is True


def run_remote_invokes(tracer, requests=6):
    """N invokes from site1 to site0, each rooting its own trace."""
    with obs.use_tracer(tracer), obs.use_metrics(obs.MetricsRegistry()):
        env = Environment()
        topo = wan(env, sites=2, hosts_per_site=1)
        net = Network(env, topo)
        runtime = ODPRuntime(net, registry_node="site0.host0")
        server = runtime.nucleus("site0.host0")
        client = runtime.nucleus("site1.host0")
        capsule = server.create_capsule("cap")
        obj = server.create_object(capsule, "counter", state={"n": 0})
        obj.operation(
            "incr", lambda caller, state, args: state.__setitem__(
                "n", state["n"] + 1) or state["n"])

        def root(env):
            for _ in range(requests):
                yield client.invoke(obj.oid, "incr", 1)
                yield env.timeout(0.1)

        proc = env.process(root(env))
        env.run(proc)
    return obj


class TestCrossNodeSampling:

    def test_sampled_traces_stay_complete_end_to_end(self):
        tracer = obs.Tracer(sampler=Sampler(rate=0.5, seed=2))
        run_remote_invokes(tracer)
        trace_ids = {s.trace_id for s in tracer.spans}
        assert trace_ids, "expected at least one sampled trace"
        for trace_id in trace_ids:
            names = {s.name for s in tracer.trace(trace_id)}
            # Client call, transit over every hop, and the remote
            # execution are all present — no half-sampled traces.
            assert {"node.invoke", "rpc.call", "net.transmit",
                    "net.link", "rpc.serve"} <= names

    def test_unsampled_traces_leave_no_spans_at_any_node(self):
        tracer = obs.Tracer(sampler=Sampler(rate=0.5, seed=2))
        run_remote_invokes(tracer, requests=8)
        full = obs.Tracer()
        run_remote_invokes(full, requests=8)
        assert tracer.sampled_out > 0
        assert len(tracer.spans) < len(full.spans)

    def test_same_seed_samples_identical_trace_sets_across_runs(self):
        results = []
        for _ in range(2):
            tracer = obs.Tracer(sampler=Sampler(rate=0.5, seed=4))
            run_remote_invokes(tracer, requests=10)
            results.append(sorted({s.trace_id for s in tracer.spans}))
        assert results[0] == results[1]

    def test_sampling_does_not_change_simulation_results(self):
        sampled = run_remote_invokes(
            obs.Tracer(sampler=Sampler(rate=0.3, seed=9)))
        unsampled = run_remote_invokes(obs.Tracer())
        assert sampled.state == unsampled.state
