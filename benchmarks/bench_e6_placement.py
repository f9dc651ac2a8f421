"""E6 — group-aware placement and migration (§4.2.1 "Management").

*"objects are likely to be shared by a group of users at geographically
dispersed sites with each site requiring similar real-time response.
This adds considerable complexity to the placement and migration
strategies of objects."*

Setup: a WAN with asymmetric site distances; a shared object used by a
group spanning three sites.  Part (a) compares placement policies by the
*measured* per-member invocation round trip (worst member and spread —
the fairness the paper asks for).  Part (b) shows usage-driven migration
relocating a badly placed object at run time and the per-member latency
before and after.
"""

from benchmarks._util import print_table, run_once
from repro.management import (
    FirstNodePlacement,
    GroupAwarePlacement,
    LoadBalancedPlacement,
    MigrationManager,
    RandomPlacement,
    UsageMonitor,
)
from repro.net import Network, Topology
from repro.node import ODPRuntime
from repro.sim import Environment, RandomStreams, Tally

SITES = {
    # name -> latency to the exchange hub (seconds)
    "london": 0.002,
    "lancaster": 0.004,
    "paris": 0.010,
    "tokyo": 0.120,
}
GROUP = ["lancaster", "paris", "tokyo"]
#: Part (b): overnight, the active users are all in tokyo — the object
#: (created in london) should follow them.
MIGRATION_GROUP = ["tokyo"]
INVOCATIONS_PER_MEMBER = 10


def build_runtime(env):
    topo = Topology(env)
    for site, latency in SITES.items():
        topo.add_link(site, "hub", latency=latency)
    net = Network(env, topo)
    runtime = ODPRuntime(net, registry_node="london")
    for site in SITES:
        runtime.nucleus(site)
    return runtime


def measure_placement(policy):
    env = Environment()
    runtime = build_runtime(env)
    topo = runtime.network.topology
    candidates = sorted(SITES) + ["hub"]
    runtime.nucleus("hub")
    chosen = policy.place(candidates, GROUP, topo)
    nucleus = runtime.nuclei[chosen]
    capsule = nucleus.create_capsule()
    obj = nucleus.create_object(capsule, "whiteboard", state={"n": 0})
    obj.operation("poke", lambda caller, state, args: state["n"])

    per_member = {member: Tally(member) for member in GROUP}

    def member_proc(env, member):
        for _ in range(INVOCATIONS_PER_MEMBER):
            yield env.timeout(0.5)
            start = env.now
            yield runtime.nuclei[member].invoke(obj.oid, "poke")
            per_member[member].record(env.now - start)

    for member in GROUP:
        env.process(member_proc(env, member))
    env.run()
    means = [tally.mean for tally in per_member.values()]
    return {
        "chosen": chosen,
        "worst": max(means),
        "spread": max(means) - min(means),
    }


def run_migration_demo():
    env = Environment()
    runtime = build_runtime(env)
    nucleus = runtime.nuclei["london"]  # badly placed for the group
    capsule = nucleus.create_capsule()
    obj = nucleus.create_object(capsule, "board", state={"n": 0},
                                state_size=65536)
    obj.operation("poke", lambda caller, state, args: state["n"])
    monitor = UsageMonitor(env, window=300.0)
    manager = MigrationManager(
        runtime, monitor, policy=GroupAwarePlacement(),
        candidates=sorted(SITES) + ["hub"], period=10.0,
        improvement_threshold=0.2)
    runtime.nucleus("hub")
    early = Tally("early")
    late = Tally("late")

    def member_proc(env, member):
        for i in range(30):
            yield env.timeout(1.0)
            monitor.record(obj.oid, member)
            start = env.now
            yield runtime.nuclei[member].invoke(obj.oid, "poke")
            (early if start < 10.0 else late).record(env.now - start)

    for member in MIGRATION_GROUP:
        env.process(member_proc(env, member))
    env.run(until=40.0)
    manager.stop()
    return {
        "migrations": manager.migrations,
        "before": early.mean,
        "after": late.mean,
        "final_location": runtime.locate(obj.oid),
    }


def run_experiment():
    policies = {
        "first-node (creator)": FirstNodePlacement(),
        "random": RandomPlacement(RandomStreams(9).stream("placement")),
        "load-balanced": LoadBalancedPlacement(),
        "group-aware": GroupAwarePlacement(),
    }
    placement = {name: measure_placement(policy)
                 for name, policy in policies.items()}
    return {"placement": placement, "migration": run_migration_demo()}


def test_e6_placement(benchmark):
    results = run_once(benchmark, run_experiment)
    rows = [(name, stats["chosen"], stats["worst"] * 1000,
             stats["spread"] * 1000)
            for name, stats in results["placement"].items()]
    print_table(
        "E6a  placement policies: measured group response",
        ["policy", "chosen node", "worst member RTT (ms)",
         "member spread (ms)"],
        rows)
    migration = results["migration"]
    print_table(
        "E6b  usage-driven migration (object starts at london; the "
        "active group works from tokyo)",
        ["migrations", "final location", "mean RTT before (ms)",
         "mean RTT after (ms)"],
        [(len(migration["migrations"]), migration["final_location"],
          migration["before"] * 1000, migration["after"] * 1000)])
    group_aware = results["placement"]["group-aware"]
    first = results["placement"]["first-node (creator)"]
    # The group-aware policy minimises the worst member's response.
    assert group_aware["worst"] <= min(
        stats["worst"] for stats in results["placement"].values())
    assert group_aware["worst"] < first["worst"]
    # Migration found a better home and improved measured latency.
    assert len(migration["migrations"]) >= 1
    assert migration["after"] < migration["before"]
    benchmark.extra_info["group_aware_worst_ms"] = \
        group_aware["worst"] * 1000
