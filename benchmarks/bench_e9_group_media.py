"""E9 — multicast for group continuous media (§4.2.2-iv).

*"Multicast transport protocols are necessary to enable group
communication of continuous media."*  One member fans a 50-frame video
stream out to the rest of a group placed on a WAN of four sites with
four hosts each; the seed draws which hosts are members (the first drawn
sends).  The fan-out is (i) repeated unicast and (ii) a source-rooted
multicast tree, which carries each frame once over every link it shares.
The group-invocation deadline the experiment also had is met by
construction on a 20 ms WAN; group RPC is tier-1's
(``tests/groups/test_failure_invocation.py``).

Declared claim, per seed: both transports deliver the same frames, and
the multicast tree's saving (unicast over multicast link bytes) never
falls as the group grows and is larger for the largest group than for
the smallest.
"""

from benchmarks._util import check, print_sweep, sweep
from repro.net import MulticastService, Network, wan
from repro.obs.metrics import Tally
from repro.sim import Environment, RandomStreams

SITES, HOSTS_PER_SITE = 4, 4
GROUP_SIZES = (2, 4, 8)
FRAMES = 50
FRAME_SIZE = 4000
RATE = 25.0


def fan_out(members, use_multicast):
    env = Environment()
    net = Network(env, wan(env, sites=SITES, hosts_per_site=HOSTS_PER_SITE,
                           site_latency=0.02))
    service = MulticastService(net)
    group = service.create_group("conference")
    latency = Tally("latency")
    for member in members:
        net.host(member).on_packet(
            service.port,
            lambda packet: latency.record(env.now - packet.created_at))
        group.join(member)
    send = service.send if use_multicast else service.unicast_fanout

    def pump(env):
        for _ in range(FRAMES):
            send("conference", members[0], size=FRAME_SIZE)
            yield env.timeout(1.0 / RATE)

    env.process(pump(env))
    env.run()
    return net.total_link_bytes(), latency


def run(seed, size):
    hosts = ["site{}.host{}".format(site, host) for site in range(SITES)
             for host in range(HOSTS_PER_SITE)]
    members = RandomStreams(seed).stream("members").sample(hosts, size)
    unicast_bytes, unicast = fan_out(members, use_multicast=False)
    multicast_bytes, multicast = fan_out(members, use_multicast=True)
    return {"unicast bytes": unicast_bytes,
            "multicast bytes": multicast_bytes,
            "saving": unicast_bytes / multicast_bytes,
            "unicast delivered": unicast.count,
            "multicast delivered": multicast.count,
            "unicast lat": unicast.mean * 1000,
            "multicast lat": multicast.mean * 1000}


def claim_holds(rows):
    savings = [row["saving"] for row in rows]
    return (all(row["unicast delivered"] == row["multicast delivered"]
                for row in rows)
            and savings == sorted(savings) and savings[-1] > savings[0])


def test_e9_group_media():
    sweeps = sweep(run, GROUP_SIZES)
    print_sweep(
        "E9  1->N media fan-out on a {}x{} WAN: unicast vs multicast "
        "tree".format(SITES, HOSTS_PER_SITE), "members", GROUP_SIZES,
        sweeps, {"unicast bytes": "unicast bytes",
                 "multicast bytes": "multicast bytes", "saving (x)": "saving",
                 "unicast lat (ms)": "unicast lat",
                 "multicast lat (ms)": "multicast lat",
                 "delivered": "multicast delivered"})
    check(sweeps, claim_holds, "(both deliver the same frames; the tree "
          "saves more as the group grows)")
