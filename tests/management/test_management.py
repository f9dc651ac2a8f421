"""Tests for usage monitoring, placement policies and migration."""

import pytest

from repro.errors import PlacementError, ReproError
from repro.management import (
    FirstNodePlacement,
    GroupAwarePlacement,
    LoadBalancedPlacement,
    MigrationManager,
    PLACEMENT_POLICIES,
    RandomPlacement,
    UsageMonitor,
    response_latencies,
)
from repro.net import Network, Topology, wan
from repro.node import ODPRuntime
from repro.sim import Environment, RandomStreams


@pytest.fixture
def env():
    return Environment()


# -- usage monitor -------------------------------------------------------------

def test_monitor_window_validation(env):
    with pytest.raises(ReproError):
        UsageMonitor(env, window=0)


def test_monitor_access_pattern(env):
    monitor = UsageMonitor(env, window=10.0)
    monitor.record("obj-1", "siteA")
    monitor.record("obj-1", "siteA")
    monitor.record("obj-1", "siteB")
    monitor.record("obj-2", "siteC")
    assert monitor.access_pattern("obj-1") == {"siteA": 2, "siteB": 1}
    assert monitor.total_accesses("obj-1") == 3
    assert monitor.user_nodes("obj-1") == ["siteA", "siteB"]
    assert monitor.active_objects() == ["obj-1", "obj-2"]


def test_monitor_window_expires_samples(env):
    monitor = UsageMonitor(env, window=5.0)
    monitor.record("obj-1", "siteA")
    env.run(until=10.0)
    monitor.record("obj-2", "siteB")
    assert monitor.access_pattern("obj-1") == {}
    assert monitor.active_objects() == ["obj-2"]


def test_monitor_expiry_drops_only_stale_prefix(env):
    monitor = UsageMonitor(env, window=5.0)
    monitor.record("obj-1", "siteA")
    env.run(until=3.0)
    monitor.record("obj-2", "siteB")
    env.run(until=7.0)   # obj-1's sample is now outside the window
    assert monitor.active_objects() == ["obj-2"]
    assert len(monitor._samples) == 1   # expired samples are popped


def test_monitor_routes_samples_through_metrics_registry(env):
    registry = env.metrics
    monitor = UsageMonitor(env, window=5.0)
    monitor.record("obj-1", "siteA")
    monitor.record("obj-1", "siteA")
    monitor.record("obj-1", "siteB")
    assert registry.counter("usage.access", oid="obj-1",
                            node="siteA").value == 2
    assert registry.counter("usage.access", oid="obj-1",
                            node="siteB").value == 1
    # The registry view is cumulative (no window), the monitor's is
    # windowed: both must agree before anything expires.
    assert monitor.total_accesses("obj-1") == 3


# -- placement policies -----------------------------------------------------------

def star_topology(env):
    """Three sites: A and B close together, C far away, plus a hub."""
    topo = Topology(env)
    topo.add_link("siteA", "hub", latency=0.002)
    topo.add_link("siteB", "hub", latency=0.002)
    topo.add_link("siteC", "hub", latency=0.100)
    return topo


def test_policies_require_candidates(env):
    topo = star_topology(env)
    for policy in (FirstNodePlacement(), RandomPlacement(),
                   LoadBalancedPlacement(), GroupAwarePlacement()):
        with pytest.raises(PlacementError):
            policy.place([], ["siteA"], topo)


def test_first_node_policy(env):
    topo = star_topology(env)
    policy = FirstNodePlacement()
    assert policy.place(["siteC", "siteA"], ["siteA"], topo) == "siteC"


def test_random_policy_deterministic_with_seed(env):
    topo = star_topology(env)
    rng = RandomStreams(5).stream("placement")
    policy = RandomPlacement(rng=rng)
    choices = {policy.place(["siteA", "siteB", "siteC"], [], topo)
               for _ in range(50)}
    assert choices <= {"siteA", "siteB", "siteC"}
    assert len(choices) > 1


def test_load_balanced_spreads_objects(env):
    topo = star_topology(env)
    policy = LoadBalancedPlacement()
    placements = [policy.place(["siteA", "siteB"], [], topo)
                  for _ in range(4)]
    assert placements.count("siteA") == 2
    assert placements.count("siteB") == 2


def test_group_aware_minimises_worst_latency(env):
    topo = star_topology(env)
    policy = GroupAwarePlacement()
    # Group spans all three sites: the hub equalises; siteA would leave
    # siteC with a 2-hop worst path.
    chosen = policy.place(["siteA", "siteB", "siteC", "hub"],
                          ["siteA", "siteB", "siteC"], topo)
    assert chosen == "hub"


def test_group_aware_follows_the_group(env):
    topo = star_topology(env)
    policy = GroupAwarePlacement()
    chosen = policy.place(["siteA", "siteB", "siteC", "hub"],
                          ["siteC"], topo)
    assert chosen == "siteC"


def test_group_aware_weights_bias_choice(env):
    topo = Topology(env)
    topo.add_link("left", "mid", latency=0.01)
    topo.add_link("mid", "right", latency=0.01)
    policy = GroupAwarePlacement()
    # Unweighted, mid equalises left and right.
    assert policy.place(["left", "mid", "right"],
                        ["left", "right"], topo) == "mid"
    # Heavy use from the left pulls the object leftward: left's weighted
    # latency dominates, so hosting at 'left' minimises the worst member.
    chosen = policy.place(["left", "mid", "right"], ["left", "right"],
                          topo, weights={"left": 100, "right": 0})
    assert chosen == "left"


def test_group_aware_empty_group_defaults(env):
    topo = star_topology(env)
    assert GroupAwarePlacement().place(["siteB"], [], topo) == "siteB"


def test_response_latencies(env):
    topo = star_topology(env)
    latencies = response_latencies("hub", ["siteA", "siteC"], topo)
    assert latencies["siteA"] == pytest.approx(0.004)
    assert latencies["siteC"] == pytest.approx(0.200)


def test_policy_registry():
    assert set(PLACEMENT_POLICIES) == {"first-node", "random",
                                       "load-balanced", "group-aware"}


# -- migration manager --------------------------------------------------------------

def make_runtime(env):
    topo = wan(env, sites=3, hosts_per_site=1, site_latency=0.05)
    net = Network(env, topo)
    runtime = ODPRuntime(net, registry_node="site0.host0")
    for i in range(3):
        runtime.nucleus("site{}.host0".format(i))
    return runtime


def test_migration_manager_validation(env):
    runtime = make_runtime(env)
    monitor = UsageMonitor(env)
    with pytest.raises(PlacementError):
        MigrationManager(runtime, monitor, period=0)
    with pytest.raises(PlacementError):
        MigrationManager(runtime, monitor, improvement_threshold=1.5)


def test_migration_moves_object_toward_users(env):
    runtime = make_runtime(env)
    creator = runtime.nuclei["site0.host0"]
    capsule = creator.create_capsule()
    obj = creator.create_object(capsule, "whiteboard", state={"n": 0})
    obj.operation("poke", lambda caller, state, args: state["n"])
    monitor = UsageMonitor(env, window=100.0)
    manager = MigrationManager(
        runtime, monitor, period=5.0, improvement_threshold=0.1,
        candidates=["site0.host0", "site1.host0", "site2.host0"])

    def users(env):
        # Only site2 uses the object.
        for _ in range(10):
            yield env.timeout(1.0)
            monitor.record(obj.oid, "site2.host0")
            yield runtime.nuclei["site2.host0"].invoke(obj.oid, "poke")

    env.process(users(env))
    env.run(until=30.0)
    assert runtime.locate(obj.oid) == "site2.host0"
    assert manager.counters["migrations"] == 1
    assert manager.migrations[0][2:] == ("site0.host0", "site2.host0")


def test_migration_skips_marginal_improvement(env):
    # Custom geometry: moving A -> C would improve the single user at B
    # by only 40%, below the 90% threshold.
    topo = Topology(env)
    topo.add_link("A", "B", latency=0.1)
    topo.add_link("C", "B", latency=0.06)
    topo.add_link("A", "C", latency=0.05)
    net = Network(env, topo)
    runtime = ODPRuntime(net, registry_node="A")
    for node in ("A", "B", "C"):
        runtime.nucleus(node)
    creator = runtime.nuclei["A"]
    capsule = creator.create_capsule()
    obj = creator.create_object(capsule, "doc")
    monitor = UsageMonitor(env, window=100.0)
    manager = MigrationManager(
        runtime, monitor, period=5.0, improvement_threshold=0.9,
        candidates=["A", "C"])
    monitor.record(obj.oid, "B")
    env.run(until=12.0)
    assert runtime.locate(obj.oid) == "A"
    assert manager.counters["migrations"] == 0
    assert manager.counters["evaluations"] >= 1
    manager.stop()


def test_migration_manager_stop(env):
    runtime = make_runtime(env)
    monitor = UsageMonitor(env)
    manager = MigrationManager(runtime, monitor, period=1.0)
    manager.stop()
    env.run(until=5.0)
    assert manager.counters["evaluations"] == 0
