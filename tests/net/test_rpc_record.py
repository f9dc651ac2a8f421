"""An RPC is a record: cost, stale timers, late replies, order and a model.

``RpcEndpoint.call`` and ``Nucleus.invoke`` keep one record per logical
call, advanced by the reply handler and one timer per attempt; the
serving side answers from its packet handler.  The generator processes
they replaced live on in ``tests/net/rpc_model.py``, and a property test
builds the same faulty little world twice — once from the model, once
from ``src/`` — and holds the two to the same outcome per call, the same
breaker and backoff history, the same gauges and the same span tree.
"""

import functools
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.policies import (
    CircuitBreaker,
    FaultPolicies,
    RetryPolicy,
)
from repro.net import Network, RpcEndpoint, Topology
from repro.node import ODPRuntime
from repro.errors import NodeError
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import Tracer, use_tracer
from repro.sim import Environment
from tests.counting import CountingEnvironment, ShuffledEnvironment
from tests.lockstep import Whole, lockstep
from tests.net.rpc_model import ModelRpcEndpoint, ModelRuntime


# -- cost ----------------------------------------------------------------------

def _line(env, nodes=3, latency=0.004):
    names = ["n{}".format(i) for i in range(nodes)]
    topo = Topology(env)
    for a, b in zip(names, names[1:]):
        topo.add_link(a, b, latency=latency)
    return Network(env, topo), names


def _board(runtime, node, env):
    nucleus = runtime.nucleus(node)
    board = nucleus.create_object(nucleus.create_capsule("cap"), "board",
                                  state={"hits": 0})

    def hit(caller, state, args):
        state["hits"] += 1
        return state["hits"]

    def slow_hit(caller, state, args):
        yield env.timeout(0.05)
        return hit(caller, state, args)

    board.operation("hit", hit)
    board.operation("slow_hit", slow_hit)
    return board


def test_remote_invocations_of_a_plain_operation_start_no_process():
    env = CountingEnvironment()
    network, names = _line(env)
    runtime = ODPRuntime(network, registry_node="n0")
    board = _board(runtime, "n1", env)
    client = runtime.nucleus("n2")
    results = []

    def again(event=None):
        # A chain of callbacks, so the test itself starts no process.
        if event is not None:
            results.append(event.value)
        if len(results) < 20:
            client.invoke(board.oid, "hit").callbacks.append(again)

    again()
    env.run()
    assert results == list(range(1, 21))
    assert env.processes == 0
    # Per invocation: two packets of one hop (two events a hop), the
    # queued start of the request (sent from a callback, not a process),
    # the attempt's timer and the two ``done`` events.  Before them, the
    # object's registration (7) and the one ``whereis`` (11).
    assert env.pushes == 20 * 8 + 7 + 11


def test_a_generator_operation_starts_exactly_one_process():
    env = CountingEnvironment()
    network, names = _line(env)
    runtime = ODPRuntime(network, registry_node="n0")
    board = _board(runtime, "n1", env)
    remote = runtime.nucleus("n2").invoke(board.oid, "slow_hit")
    env.run()
    assert (remote.value, env.processes) == (1, 1)
    local = runtime.nucleus("n1").invoke(board.oid, "slow_hit")
    env.run()
    assert (local.value, env.processes) == (2, 2)


# -- stale timers and late replies -----------------------------------------------

def _pair(env, **endpoint_kwargs):
    network, names = _line(env, nodes=2)
    client = RpcEndpoint(network.host("n0"), **endpoint_kwargs)
    server = RpcEndpoint(network.host("n1"))
    return client, server


def _state(client, done, breaker=None):
    return (client.inflight(), dict(client._calls), done.triggered,
            done.ok, done.value if done.ok else str(done.value),
            breaker.snapshot() if breaker is not None else None,
            breaker.rejected if breaker is not None else None)


def test_an_answered_attempts_stale_timer_changes_nothing():
    registry = MetricsRegistry()
    with use_metrics(registry):
        env = Environment()
        breaker = CircuitBreaker(env, failure_threshold=1)
        client, server = _pair(env, policies=FaultPolicies(
            retry=RetryPolicy(base=0.05, max_retries=2), breaker=breaker))
        server.register("echo", lambda caller, args: args)
        done = client.call("n1", "echo", "x", timeout=0.5)
        env.run(until=0.4)
        answered = _state(client, done, breaker)
        assert answered[:5] == (0, {}, True, True, "x")
        counters = registry.snapshot()["counters"]
        env.run()   # the attempt's timer fires at 0.5, unheeded
        assert env.now == 0.5
        assert _state(client, done, breaker) == answered
        assert registry.snapshot()["counters"] == counters
        assert server.calls_served == 1


def test_a_reply_that_arrives_after_its_attempt_timed_out_is_dropped():
    env = Environment()
    breaker = CircuitBreaker(env, failure_threshold=1, reset_timeout=60.0)
    client, server = _pair(env, policies=FaultPolicies(breaker=breaker))

    def slow(caller, args):
        yield env.timeout(0.3)
        return args

    server.register("slow", slow)
    done = client.call("n1", "slow", "x", timeout=0.1).defuse()
    env.run(until=0.2)
    timed_out = _state(client, done, breaker)
    assert timed_out[:4] == (0, {}, True, False)
    assert breaker.snapshot() == {"n1": "open"}
    env.run()   # the reply lands at about 0.31 and closes nothing
    assert server.calls_served == 1
    assert _state(client, done, breaker) == timed_out


def test_a_late_reply_does_not_answer_the_retry():
    env = Environment()
    client, server = _pair(env, policies=FaultPolicies(
        retry=RetryPolicy(base=0.05, max_retries=1)))
    waits = iter([0.3, 0.0])

    def slow_once(caller, args):
        yield env.timeout(next(waits))
        return env.now

    server.register("slow_once", slow_once)
    done = client.call("n1", "slow_once", timeout=0.1)
    env.run(until=0.25)
    # Attempt 1 timed out at 0.1; attempt 2 left at 0.15 and was answered.
    assert 0.15 < done.value < 0.16
    settled = _state(client, done)
    env.run()
    assert server.calls_served == 2
    assert _state(client, done) == settled


# -- order ---------------------------------------------------------------------

def test_same_instant_calls_from_one_caller_keep_their_order_on_the_wire():
    env = Environment()
    network, names = _line(env)
    runtime = ODPRuntime(network, registry_node="n0")
    board = _board(runtime, "n0", env)
    seen = []
    board.operation("note", lambda caller, state, args: seen.append(args))
    client = runtime.nucleus("n2")

    def root(env):
        yield client.invoke(board.oid, "hit")   # learn the location
        for number in range(4):
            client.invoke(board.oid, "note", ("invoke", number))
        yield env.timeout(1.0)
        for number in range(4):
            client.rpc.call("n0", "invoke", {
                "oid": board.oid, "op": "note", "args": ("call", number)})

    env.process(root(env))
    env.run()
    assert seen == [(kind, number) for kind in ("invoke", "call")
                    for number in range(4)]


# -- the model -----------------------------------------------------------------

NODES = ("n0", "n1", "n2", "n3")
LINKS = (("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n0", "n2"))
LATENCIES = (0.0031, 0.0047, 0.0023, 0.0059)
RAW_PORT = 20
GHOST = "obj-999"
OPS = ("hit", "boom", "lost", "slow", "slowboom", "genboom")
METHODS = ("echo", "bad", "wait", "waitbad")


class _LoggedRandom(random.Random):
    """A backoff stream that remembers when each draw was made."""

    def __init__(self, seed, env, log):
        super().__init__(seed)
        self._env, self._log = env, log

    def random(self):
        value = super().random()
        self._log.append((self._env.now, value))
        return value


class _LoggedBreaker(CircuitBreaker):
    """A breaker that remembers every question and every answer."""

    def __init__(self, env, log, **kwargs):
        super().__init__(env, **kwargs)
        self._log = log

    def _logged(self, what, dst, result=None):
        self._log.append((self.env.now, what, dst, result,
                          self._state(dst).state))
        return result

    def allow(self, dst):
        return self._logged("allow", dst, super().allow(dst))

    def record_success(self, dst):
        super().record_success(dst)
        self._logged("success", dst)

    def record_failure(self, dst):
        super().record_failure(dst)
        self._logged("failure", dst)


def _operations(env, obj):
    def hit(caller, state, args):
        state["hits"] += 1
        return (obj.name, state["hits"], caller)

    def boom(caller, state, args):
        raise ValueError("boom from " + obj.name)

    def lost(caller, state, args):
        raise NodeError("nothing here for " + caller)

    def slow(caller, state, args):
        yield env.timeout(0.0311)
        return hit(caller, state, args)

    def slowboom(caller, state, args):
        yield env.timeout(0.0173)
        raise KeyError("late " + obj.name)

    def genboom(caller, state, args):
        raise RuntimeError("at once")
        yield   # pragma: no cover - makes this a generator function

    for fn in (hit, boom, lost, slow, slowboom, genboom):
        obj.operation(fn.__name__, fn)


def _handlers(env, endpoint):
    def echo(caller, args):
        return (endpoint.host.name, caller, args)

    def bad(caller, args):
        raise ValueError("bad call from " + caller)

    def wait(caller, args):
        yield env.timeout(0.0291)
        return echo(caller, args)

    def waitbad(caller, args):
        yield env.timeout(0.0119)
        raise KeyError("late " + caller)

    for fn in (echo, bad, wait, waitbad):
        endpoint.register(fn.__name__, fn)


def _canonical(spans):
    """The span forest without its ids: names, times, statuses, events
    and attributes, children in a canonical order."""
    children = {}
    retained = {span.context.span_id for span in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in retained else None
        children.setdefault(parent, []).append(span)

    def tree(span):
        return json.dumps([
            span.name, span.start, span.end, span.status, span.events,
            span.attributes,
            sorted(tree(child)
                   for child in children.get(span.context.span_id, []))],
            sort_keys=True, default=repr)

    return sorted(tree(root) for root in children.get(None, []))


def _by_instant(samples):
    """Gauge samples as ``(instant, how many, last value)``.

    Within one instant the order of two concurrent calls' samples is
    not part of the contract when a round trip takes no simulated time
    (a node calling its own endpoint while the registry still names it
    as the home of a migrating object): the processes advanced such
    calls in lock step, the records run each chase round to its send.
    """
    return [(instant, len(values), values[-1])
            for instant, values in (
                (instant, [value for _, value in group])
                for instant, group in itertools.groupby(
                    samples, key=lambda sample: sample[0]))]


def _by_instant_and_dst(breaker_log):
    """The breaker's log, in order, except that an ``(instant,
    destination)`` group the circuit stayed closed through is taken as
    a multiset.

    That is the tie ``_PendingCall`` declares and no more: two calls to
    the node's own endpoint run ``allow, success, allow, success`` where
    the processes ran ``allow, allow, success, success``.  Such a group
    is sorted within the log positions it occupies; a group holding a
    failure, a refusal or any state but closed is compared entry by
    entry, as is every group against the others.
    """
    positions = {}
    for position, entry in enumerate(breaker_log):
        positions.setdefault((entry[0], entry[2]), []).append(position)
    canonical = list(breaker_log)
    for where in positions.values():
        group = [breaker_log[position] for position in where]
        if all(entry[1:2] + entry[3:] in (("allow", True, "closed"),
                                          ("success", None, "closed"))
               for entry in group):
            for position, entry in zip(where, sorted(
                    group, key=lambda entry: entry[1])):
                canonical[position] = entry
    return canonical


def _world(runtime_cls, endpoint_cls, spec, env_cls=Environment):
    """Build the world, play the script, return everything observable."""
    tracer, registry = Tracer(), MetricsRegistry()
    draws, breaker_log, outcomes = [], [], {}
    with use_tracer(tracer), use_metrics(registry):
        env = env_cls()
        topo = Topology(env)
        links = []
        for index, (a, b) in enumerate(LINKS):
            jitter, loss = spec["links"][index]
            links.append(topo.add_link(
                a, b, latency=LATENCIES[index], jitter=jitter,
                loss=loss, bandwidth=1e6,
                rng=random.Random("link:{}".format(index))))
        network = Network(env, topo)
        retry = breaker = None
        if spec["retry"]:
            retry = RetryPolicy(
                base=0.0207, multiplier=2.0, cap=0.0611, jitter=0.25,
                max_retries=spec["retry"],
                rng=_LoggedRandom("backoff", env, draws))
        if spec["breaker"]:
            breaker = _LoggedBreaker(
                env, breaker_log, failure_threshold=spec["breaker"],
                reset_timeout=0.2503)
        policies = FaultPolicies(retry=retry, breaker=breaker,
                                 deadline=spec["deadline"]) \
            if retry or breaker or spec["deadline"] else None
        runtime = runtime_cls(network, registry_node=spec["registry"],
                              policies=policies)
        nuclei = {node: runtime.nucleus(node) for node in NODES}
        oids = {}
        for name, home in zip("AB", spec["homes"]):
            nucleus = nuclei[home]
            obj = nucleus.create_object(
                nucleus.create_capsule("cap-" + name), name,
                state={"hits": 0}, state_size=2000)
            _operations(env, obj)
            oids[name] = obj.oid
        oids["ghost"] = GHOST
        raw = {node: endpoint_cls(network.host(node), port=RAW_PORT,
                                  policies=policies)
               for node in NODES}
        for endpoint in raw.values():
            _handlers(env, endpoint)

        def note(key, event):
            event.defused = True
            outcomes[key] = (
                env.now, "ok" if event._ok
                else type(event._exception).__name__,
                repr(event._value) if event._ok
                else str(event._exception))

        def perform(index, action):
            kind = action[0]
            if kind in ("invoke", "call"):
                _, caller, target, what, timeout, repeat = action
                for r in range(repeat):
                    done = nuclei[caller].invoke(
                        oids[target], what, r, timeout=timeout
                    ) if kind == "invoke" else raw[caller].call(
                        target, what, r, timeout=timeout)
                    done.callbacks.append(functools.partial(note, (index, r)))
            elif kind == "migrate":
                _, name, target = action
                for node, nucleus in nuclei.items():
                    obj = nucleus.find_object(oids[name])
                    if obj is not None and node != target:
                        nucleus.migrate_cluster(
                            obj.cluster, target
                        ).callbacks.append(
                            functools.partial(note, (index, 0)))
            elif kind == "storm":
                _, link, scale, extra_loss, duration = action
                links[link].impair(scale, extra_loss)
                env.timeout(duration).callbacks.append(
                    lambda _: links[link].relieve(scale, extra_loss))
            else:
                _, link, duration = action
                links[link].set_up(False)
                env.timeout(duration).callbacks.append(
                    lambda _: links[link].set_up(True))

        def script(env):
            for index, (gap_ms, action) in enumerate(spec["steps"]):
                yield env.timeout(gap_ms * 0.001)
                perform(index, action)

        env.process(script(env))
        env.run()
        endpoints = [nucleus.rpc for nucleus in nuclei.values()]
        endpoints += list(raw.values())
        assert all(endpoint.inflight() == 0 and not endpoint._calls
                   for endpoint in endpoints)
        return {
            "outcomes": outcomes,
            "now": env.now,
            "attempts": [next(endpoint._call_ids) for endpoint in endpoints],
            "served": [endpoint.calls_served for endpoint in endpoints],
            "breaker": _by_instant_and_dst(breaker_log),
            "draws": draws,
            "metrics": registry.snapshot(),
            "inflight": {
                key: _by_instant(gauge.samples)
                for key, gauge in registry.gauge_items()
                if key.startswith("rpc.inflight")},
            "spans": _canonical(tracer.spans),
            "objects": sorted(
                (obj.oid, node, obj.state["hits"], obj.invocations)
                for node, nucleus in nuclei.items()
                for capsule in nucleus.capsules.values()
                for obj in capsule.all_objects()),
            "registry": dict(runtime.registry.locations),
            "caches": {node: dict(nucleus._location_cache)
                       for node, nucleus in nuclei.items()},
            "links": [(link.stats.packets, link.stats.bytes,
                       link.stats.drops, link._rng.getstate())
                      for link in links],
            "drops": network.drop_stats(),
        }


# Timeouts, waits, latencies and backoff bases are not multiples of the
# script's millisecond grid, so no timer ties with a script step: the
# order of two *unrelated* events at one instant is not part of the
# contract (see "An RPC is a record" in docs/performance.md).
_TIMEOUTS = st.sampled_from([0.0213, 0.1017, 0.5003])
_REPEAT = st.integers(1, 3)
_NODE = st.sampled_from(NODES)
_LINK = st.integers(0, len(LINKS) - 1)
_ACTIONS = st.one_of(
    st.tuples(st.just("invoke"), _NODE, st.sampled_from(["A", "B", "ghost"]),
              st.sampled_from(OPS + ("hit", "hit", "nope")), _TIMEOUTS,
              _REPEAT),
    st.tuples(st.just("call"), _NODE, _NODE,
              st.sampled_from(METHODS + ("echo", "missing")),
              st.one_of(st.none(), _TIMEOUTS), _REPEAT),
    st.tuples(st.just("migrate"), st.sampled_from("AB"), _NODE),
    st.tuples(st.just("storm"), _LINK, st.sampled_from([3.0, 40.0]),
              st.sampled_from([0.0, 0.4, 1.0]),
              st.sampled_from([0.0507, 0.3011])),
    st.tuples(st.just("down"), _LINK, st.sampled_from([0.0507, 0.3011])),
)
_SPECS = st.fixed_dictionaries({
    "links": st.lists(
        st.tuples(st.sampled_from([0.0, 0.0013]),
                  st.sampled_from([0.0, 0.0, 0.1, 0.35])),
        min_size=len(LINKS), max_size=len(LINKS)),
    "retry": st.sampled_from([0, 1, 3]),
    "breaker": st.sampled_from([0, 1, 3]),
    "deadline": st.sampled_from([None, 0.0709, 0.4001]),
    "registry": st.sampled_from(["n0", "n1"]),
    "homes": st.tuples(_NODE, _NODE),
    "steps": st.lists(st.tuples(st.integers(1, 250), _ACTIONS),
                      min_size=1, max_size=20),
})


@settings(max_examples=500)
@given(_SPECS)
@example({   # two chases through the node's own endpoint, in one instant
    "links": [(0.0, 0.0)] * 4, "retry": 0, "breaker": 0, "deadline": None,
    "registry": "n0", "homes": ("n0", "n0"),
    "steps": [(1, ("migrate", "A", "n1")),
              (1, ("invoke", "n0", "A", "hit", 0.0213, 2))]})
@example({   # the same, with a breaker listening: three chase rounds each
    "links": [(0.0, 0.0)] * 4, "retry": 0, "breaker": 1, "deadline": None,
    "registry": "n1", "homes": ("n0", "n1"),
    "steps": [(1, ("invoke", "n0", "A", "hit", 0.0213, 1)),
              (1, ("migrate", "A", "n0")),
              (1, ("migrate", "B", "n0")),
              (1, ("invoke", "n1", "B", "hit", 0.0213, 2))]})
@example({   # a half-open probe to the node's own endpoint: the second call
    # of the instant is refused only while a self-send waits for the run
    # loop instead of completing inside ``send``
    "links": [(0.0, 0.0)] * 4, "retry": 0, "breaker": 1, "deadline": None,
    "registry": "n0", "homes": ("n0", "n0"),
    "steps": [(1, ("down", 0, 0.0507)),
              (1, ("call", "n1", "n0", "echo", 0.0213, 1)),
              (272, ("call", "n0", "n0", "echo", None, 2))]})
def test_the_records_do_what_the_generator_model_does(spec):
    """Per logical call: outcome type and message, completion instant,
    attempts, breaker transitions, retries, ``rpc.inflight`` samples,
    backoff draws and the span tree — and every link's books."""
    lockstep(Whole(_world(ODPRuntime, RpcEndpoint, spec)),
             Whole(_world(ModelRuntime, ModelRpcEndpoint, spec)), ())


def _no_draws(spec):
    """``spec`` over lossless, jitter-free links, with no retries and
    storms that only slow: a tie may then reorder draws but not redraw."""
    return dict(spec, links=[(0.0, 0.0)] * len(LINKS), retry=0, steps=[
        (gap, action[:3] + (0.0,) + action[4:] if action[0] == "storm"
         else action) for gap, action in spec["steps"]])


@pytest.mark.parametrize("seed", [1, 2])
@settings(max_examples=150)
@given(_SPECS.map(_no_draws))
def test_ties_in_any_order_move_only_the_declared_keys(seed, spec):
    """Only ``outcomes`` and ``registry`` may move: docs/analysis.md,
    "Tie-sensitive modules"."""
    shuffled = functools.partial(ShuffledEnvironment, seed)
    lockstep(Whole(_world(ODPRuntime, RpcEndpoint, spec, shuffled)),
             Whole(_world(ModelRuntime, ModelRpcEndpoint, spec, shuffled)),
             (), ties=("outcomes", "registry"))


def test_the_script_vocabulary_reaches_every_kind_of_outcome():
    """The property above is not vacuous: one fixed script meets a
    success, each failure class, a retry with its jitter draw, a breaker
    refusal, a stale-location chase and a migration."""
    steps = [(5, ("invoke", "n3", "A", "hit", 0.5003, 2)),
             (5, ("invoke", "n3", "A", "boom", 0.5003, 1)),
             (5, ("invoke", "n3", "ghost", "hit", 0.5003, 1)),
             (5, ("invoke", "n1", "A", "slow", 0.5003, 1)),
             (5, ("call", "n0", "n3", "waitbad", None, 1)),
             (5, ("call", "n0", "n3", "missing", None, 1)),
             (5, ("migrate", "A", "n2")),
             (90, ("invoke", "n3", "A", "hit", 0.5003, 1)),
             (5, ("down", 2, 0.3011)),
             (5, ("invoke", "n3", "B", "hit", 0.0213, 3))]
    spec = {"links": [(0.0013, 0.0)] * 4, "retry": 1, "breaker": 3,
            "deadline": None, "registry": "n0", "homes": ("n1", "n0"),
            "steps": steps}
    record = _world(ODPRuntime, RpcEndpoint, spec)
    assert record == _world(ModelRuntime, ModelRpcEndpoint, spec)
    assert {kind for _, kind, _ in record["outcomes"].values()} == {
        "ok", "NodeError", "RemoteException", "CircuitOpenError"}
    assert record["draws"]
    assert any("rpc-retry" in tree for tree in record["spans"])
    assert any("stale-location" in tree for tree in record["spans"])
    assert any(what == "allow" and result is False
               for _, what, _, result, _ in record["breaker"])
