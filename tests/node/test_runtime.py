"""Tests for the distributed object runtime: invocation and migration."""

import pytest

from repro.errors import NodeError, PlacementError
from repro.net import Network, lan, wan
from repro.node import ODPRuntime
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_runtime(env, hosts=3):
    topo = lan(env, hosts=hosts)
    net = Network(env, topo)
    runtime = ODPRuntime(net, registry_node="host0")
    return runtime


def counter_ops(obj):
    obj.operation("incr", lambda caller, state, args: _incr(state, args))
    obj.operation("read", lambda caller, state, args: state["n"])


def _incr(state, by):
    state["n"] = state["n"] + by
    return state["n"]


def test_registry_basics():
    from repro.node import Registry

    registry = Registry()
    registry.register("obj-1", "host0")
    assert registry.lookup("obj-1") == "host0"
    registry.unregister("obj-1")
    assert registry.lookup("obj-1") is None


def test_local_invocation_short_circuits(env):
    runtime = make_runtime(env)
    nucleus = runtime.nucleus("host0")
    capsule = nucleus.create_capsule("cap")
    obj = nucleus.create_object(capsule, "counter", state={"n": 0})
    counter_ops(obj)

    def root(env):
        result = yield nucleus.invoke(obj.oid, "incr", 3)
        return (env.now, result)

    proc = env.process(root(env))
    env.run(proc)
    at, result = proc.value
    assert result == 3
    assert at == 0.0  # no network crossing for a local object


def test_remote_invocation(env):
    runtime = make_runtime(env)
    server = runtime.nucleus("host0")
    client = runtime.nucleus("host1")
    capsule = server.create_capsule("cap")
    obj = server.create_object(capsule, "counter", state={"n": 10})
    counter_ops(obj)

    def root(env):
        result = yield client.invoke(obj.oid, "incr", 5)
        return (env.now, result)

    proc = env.process(root(env))
    env.run(proc)
    at, result = proc.value
    assert result == 15
    assert at > 0.0  # crossed the network


def test_invocation_unknown_object_fails(env):
    runtime = make_runtime(env)
    client = runtime.nucleus("host1")
    errors = []

    def root(env):
        try:
            yield client.invoke("obj-424242", "read")
        except NodeError:
            errors.append(True)

    proc = env.process(root(env))
    env.run(proc)
    assert errors == [True]


def test_invocation_unknown_operation_fails(env):
    runtime = make_runtime(env)
    server = runtime.nucleus("host0")
    client = runtime.nucleus("host1")
    capsule = server.create_capsule()
    obj = server.create_object(capsule, "thing")
    errors = []

    def root(env):
        try:
            yield client.invoke(obj.oid, "nothing")
        except NodeError as error:
            errors.append(str(error))

    proc = env.process(root(env))
    env.run(proc)
    assert errors


def test_generator_operation_takes_simulated_time(env):
    runtime = make_runtime(env)
    server = runtime.nucleus("host0")
    client = runtime.nucleus("host1")
    capsule = server.create_capsule()
    obj = server.create_object(capsule, "worker")

    def busy(caller, state, args):
        yield env.timeout(1.0)
        return "worked"

    obj.operation("work", busy)

    def root(env):
        result = yield client.invoke(obj.oid, "work")
        return (env.now, result)

    proc = env.process(root(env))
    env.run(proc)
    at, result = proc.value
    assert result == "worked"
    assert at >= 1.0


def test_create_object_requires_local_capsule(env):
    runtime = make_runtime(env)
    n0 = runtime.nucleus("host0")
    n1 = runtime.nucleus("host1")
    foreign_capsule = n1.create_capsule()
    with pytest.raises(NodeError):
        n0.create_object(foreign_capsule, "x")


def test_migration_moves_object_and_updates_registry(env):
    runtime = make_runtime(env)
    source = runtime.nucleus("host0")
    target_name = "host2"
    runtime.nucleus(target_name)
    client = runtime.nucleus("host1")
    capsule = source.create_capsule()
    obj = source.create_object(capsule, "counter", state={"n": 0},
                               state_size=4096)
    counter_ops(obj)
    cluster = obj.cluster

    def root(env):
        yield client.invoke(obj.oid, "incr", 1)
        yield source.migrate_cluster(cluster, target_name)
        assert runtime.locate(obj.oid) == target_name
        result = yield client.invoke(obj.oid, "incr", 1)
        return result

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == 2
    assert source.find_object(obj.oid) is None
    assert runtime.nuclei[target_name].find_object(obj.oid) is not None


def test_migration_of_foreign_cluster_fails(env):
    runtime = make_runtime(env)
    n0 = runtime.nucleus("host0")
    n1 = runtime.nucleus("host1")
    capsule = n1.create_capsule()
    obj = n1.create_object(capsule, "x")
    errors = []

    def root(env):
        try:
            yield n0.migrate_cluster(obj.cluster, "host2")
        except PlacementError:
            errors.append(True)

    proc = env.process(root(env))
    env.run(proc)
    assert errors == [True]


def test_stale_cache_chased_after_migration(env):
    runtime = make_runtime(env, hosts=4)
    source = runtime.nucleus("host0")
    runtime.nucleus("host2")
    client = runtime.nucleus("host1")
    capsule = source.create_capsule()
    obj = source.create_object(capsule, "counter", state={"n": 0})
    counter_ops(obj)
    cluster = obj.cluster

    def root(env):
        # Prime the client's location cache.
        yield client.invoke(obj.oid, "incr", 1)
        yield source.migrate_cluster(cluster, "host2")
        # The cached location (host0) is now stale; the runtime must chase.
        result = yield client.invoke(obj.oid, "incr", 1)
        return result

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == 2


def test_runtime_all_objects_and_locate(env):
    runtime = make_runtime(env)
    n0 = runtime.nucleus("host0")
    capsule = n0.create_capsule()
    obj = n0.create_object(capsule, "a")
    assert runtime.locate(obj.oid) == "host0"
    assert obj in runtime.all_objects()


def test_remote_object_registration_over_wan(env):
    topo = wan(env, sites=2, hosts_per_site=1)
    net = Network(env, topo)
    runtime = ODPRuntime(net, registry_node="site0.host0")
    remote = runtime.nucleus("site1.host0")
    capsule = remote.create_capsule()
    obj = remote.create_object(capsule, "far", state={"n": 0})
    counter_ops(obj)
    client = runtime.nucleus("site0.host0")

    def root(env):
        # Allow the asynchronous registration to reach the registry.
        yield env.timeout(1.0)
        result = yield client.invoke(obj.oid, "incr", 7)
        return result

    proc = env.process(root(env))
    env.run(proc)
    assert proc.value == 7


# -- an open circuit (or a dead registry) fails the event, not the run -----------

def breaker_line(env):
    """n0 - n1 - n2, registry on n0, one shared one-strike breaker, and
    a counter living on n1."""
    from repro.faults.policies import CircuitBreaker, FaultPolicies
    from repro.net import Topology

    topo = Topology(env)
    topo.add_link("n0", "n1", latency=0.002)
    topo.add_link("n1", "n2", latency=0.002)
    breaker = CircuitBreaker(env, failure_threshold=1, reset_timeout=5)
    runtime = ODPRuntime(Network(env, topo), registry_node="n0",
                         policies=FaultPolicies(breaker=breaker))
    home = runtime.nucleus("n1")
    obj = home.create_object(home.create_capsule(), "counter",
                             state={"n": 0})
    counter_ops(obj)
    runtime.nucleus("n2")
    env.run()   # the registration reaches n0
    assert runtime.locate(obj.oid) == "n1"
    return runtime, breaker, home, obj


def holders(runtime, oid):
    return [name for name, nucleus in sorted(runtime.nuclei.items())
            if nucleus.find_object(oid) is not None]


def test_a_refused_whereis_fails_the_invocation_with_the_refusal(env):
    from repro.faults.policies import CircuitOpenError

    runtime, breaker, home, obj = breaker_line(env)
    breaker.record_failure("n0")
    done = runtime.nucleus("n2").invoke(obj.oid, "incr", 1).defuse()
    env.run()
    assert not done.ok
    assert isinstance(done.value, CircuitOpenError)
    assert "whereis not attempted" in str(done.value)
    assert obj.state["n"] == 0


def test_a_refused_migrate_in_rolls_the_cluster_back(env):
    runtime, breaker, home, obj = breaker_line(env)
    breaker.record_failure("n2")
    done = home.migrate_cluster(obj.cluster, "n2").defuse()
    env.run()
    assert not done.ok
    assert isinstance(done.value, PlacementError)
    assert "circuit to n2 is open" in str(done.value)
    assert holders(runtime, obj.oid) == ["n1"]
    assert home.find_object(obj.oid) is obj


@pytest.mark.parametrize("how", ["refused", "timed out"])
def test_a_failed_registry_update_after_migrate_in_still_fires_done(env, how):
    runtime, breaker, home, obj = breaker_line(env)
    if how == "refused":
        breaker.record_failure("n0")
    else:
        runtime.network.topology.link_between("n0", "n1").set_up(False)
    done = home.migrate_cluster(obj.cluster, "n2").defuse()
    env.run()
    assert not done.ok
    assert isinstance(done.value, PlacementError)
    assert "registry n0 was not updated" in str(done.value)
    assert holders(runtime, obj.oid) == ["n2"]
    assert runtime.locate(obj.oid) == "n1"   # stale, as the error says


def test_nucleus_keeps_the_registry_of_its_first_invocation(env):
    # Built before either scope; what it first records under is where
    # every later invocation is counted, local or remote.
    from repro.obs.metrics import MetricsRegistry, use_metrics

    runtime = make_runtime(env)
    home = runtime.nucleus("host0")
    obj = home.create_object(home.create_capsule("cap"), "counter",
                             state={"n": 0})
    counter_ops(obj)
    client = runtime.nucleus("host1")
    first, second = MetricsRegistry(), MetricsRegistry()
    with use_metrics(first):
        env.run(client.invoke(obj.oid, "incr", 1))
    with use_metrics(second):
        env.run(client.invoke(obj.oid, "read"))
        env.run(home.invoke(obj.oid, "read"))
    assert first.counter_total("node.invocations", node="host1") == 2
    assert first.counter_total("node.op.invocations", node="host1",
                               op="read") == 1
    assert first.histogram_count("rpc.latency", node="host1") == 2
    assert second.counter_total("node.invocations", node="host1") == 0
    assert second.histogram_count("rpc.latency") == 0
    # host0's nucleus recorded nothing under the first scope: it is
    # the second's.
    assert second.counters("node.invocations") == {
        "node.invocations{kind=local,node=host0}": 1}
