"""E9 — group communication for continuous media (§4.2.2-iv).

Two requirements:

* *"multicast transport protocols are necessary to enable group
  communication of continuous media"* — part (a) fans one video frame
  stream out to N sites via (i) repeated unicast and (ii) a source-rooted
  multicast tree, and compares total link bytes and delivery latency as
  N grows;
* *"group RPC protocols are required which provide bounded real-time
  performance"* — part (b) measures group-invocation completion against
  a real-time deadline across group sizes.

Expected shape: unicast cost grows ~linearly with N on the sender's
links; multicast cost grows with the tree (shared trunk links carry each
frame once), so the gap widens with N.
"""

from benchmarks._util import print_table, run_once
from repro.groups import GroupInvoker, QUORUM_ALL
from repro.net import MulticastService, Network, wan
from repro.sim import Environment, Tally

GROUP_SIZES = (2, 4, 8)
FRAMES = 50
FRAME_SIZE = 4000
RATE = 25.0


def run_fanout(n_sites, use_multicast):
    env = Environment()
    topo = wan(env, sites=n_sites, hosts_per_site=1,
               site_latency=0.02)
    net = Network(env, topo)
    service = MulticastService(net)
    group = service.create_group("conference")
    members = ["site{}.host0".format(i) for i in range(n_sites)]
    for member in members:
        net.host(member)
        group.join(member)
    src = members[0]
    latency = Tally("latency")
    for member in members[1:]:
        net.hosts[member].on_packet(
            service.port,
            lambda packet: latency.record(
                env.now - packet.created_at))

    def pump(env):
        for _ in range(FRAMES):
            if use_multicast:
                service.send("conference", src, size=FRAME_SIZE)
            else:
                service.unicast_fanout("conference", src,
                                       size=FRAME_SIZE)
            yield env.timeout(1.0 / RATE)

    env.process(pump(env))
    env.run()
    return {
        "bytes": net.total_link_bytes(),
        "latency": latency,
        "delivered": latency.count,
    }


def run_group_rpc(n_members):
    env = Environment()
    topo = wan(env, sites=n_members + 1, hosts_per_site=1,
               site_latency=0.02)
    net = Network(env, topo)
    invoker = GroupInvoker(net, "site0.host0")
    members = []
    for i in range(1, n_members + 1):
        node = "site{}.host0".format(i)
        endpoint = invoker.serve(node)
        endpoint.register("start_camera",
                          lambda caller, args: "rolling")
        members.append(node)

    def root(env):
        result = yield invoker.call(members, "start_camera",
                                    deadline=0.5, quorum=QUORUM_ALL)
        return result

    proc = env.process(root(env))
    env.run(proc)
    result = proc.value
    return {"replied": result.replied, "met": result.quorum_met,
            "worst": result.worst_latency}


def run_experiment():
    fanout_rows = []
    for n in GROUP_SIZES:
        unicast = run_fanout(n, use_multicast=False)
        multicast = run_fanout(n, use_multicast=True)
        fanout_rows.append((
            n, unicast["bytes"], multicast["bytes"],
            unicast["bytes"] / multicast["bytes"],
            unicast["latency"].mean * 1000,
            multicast["latency"].mean * 1000,
            unicast["delivered"], multicast["delivered"]))
    rpc_rows = [(n, stats["replied"], stats["worst"] * 1000,
                 stats["met"])
                for n, stats in ((n, run_group_rpc(n))
                                 for n in GROUP_SIZES)]
    return {"fanout": fanout_rows, "rpc": rpc_rows}


def test_e9_group_media(benchmark):
    results = run_once(benchmark, run_experiment)
    print_table(
        "E9a  1->N continuous-media fan-out: unicast vs multicast tree",
        ["members", "unicast bytes", "multicast bytes", "ratio",
         "unicast lat (ms)", "multicast lat (ms)",
         "uni delivered", "mc delivered"],
        results["fanout"])
    print_table(
        "E9b  group invocation under a 500 ms real-time deadline",
        ["members", "replied", "worst reply (ms)", "bound met"],
        results["rpc"])
    ratios = [row[3] for row in results["fanout"]]
    # Multicast never costs more, and its advantage grows with N.
    assert all(ratio >= 1.0 for ratio in ratios)
    assert ratios[-1] > ratios[0]
    # Everyone receives every frame under both transports.
    for row in results["fanout"]:
        n = row[0]
        assert row[6] == row[7] == FRAMES * (n - 1)
    # Group invocation meets the bound at every size here.
    assert all(met for _, _, _, met in results["rpc"])
    benchmark.extra_info["ratio_at_8"] = ratios[-1]
