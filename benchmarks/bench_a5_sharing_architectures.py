"""A5 (ablation) — collaboration-transparent vs collaboration-aware
sharing (§3.2.2).

Transparent sharing puts an unmodified single-user application in front
of the group by multicasting its *display* to every member and forcing
turn-taking on input; aware sharing replicates the application's *state
changes* and lets each member present them locally.

One editing session is run through both architectures while sweeping the
group size, each on a switched LAN with one host per member (the
transparent app on a host of its own).  Measured: bytes per input event
on the links (full display multicast vs small state delta, headers
included), input serialisation delay (the floor's messages, the input's
trip to the app and the submitter's own screen vs none), and
tailorability (distinct presentations possible).

Declared claim, per seed and at every group size: transparent sharing
ships more bytes per input than aware sharing, its inputs wait on the
floor and display pipeline where aware updates present at once, and
its one WYSIWIS presentation is fewer than the aware object's tailored
ones.
"""

from benchmarks._util import check, print_sweep, sweep
from repro.net import Network, lan
from repro.obs.metrics import Tally
from repro.sessions import (
    AwareSharedObject,
    FcfsFloor,
    SingleUserApp,
    TransparentConference,
    identical_view,
    summary_view,
)
from repro.sim import Environment, RandomStreams, exponential

GROUP_SIZES = (2, 4, 8)
INPUTS_PER_MEMBER = 10
DISPLAY_SIZE = 20_000      # a full screen update, bytes
THINK_MEAN = 1.0
EDIT_HOLD = 0.5


def members_network(hosts):
    """``member-0``..``member-<hosts - 1>`` on one switch."""
    env = Environment()
    return Network(env, lan(env, hosts=hosts, prefix="member-"))


def run_transparent(seed, members_count):
    network = members_network(members_count + 1)
    env = network.env
    floor = FcfsFloor(network, "member-{}".format(members_count))
    conference = TransparentConference(network, SingleUserApp(), floor,
                                       display_size=DISPLAY_SIZE)
    members = ["member-{}".format(i) for i in range(members_count)]
    for member in members:
        conference.join(member)
    rng = RandomStreams(seed).stream("transparent")
    input_delay = Tally("delay")

    def participant(env, member):
        for i in range(INPUTS_PER_MEMBER):
            yield env.timeout(exponential(rng, THINK_MEAN))
            start = env.now
            yield conference.submit(member, (member, i))
            input_delay.record(env.now - start)
            yield env.timeout(EDIT_HOLD)

    for member in members:
        env.process(participant(env, member))
    env.run()
    inputs = len(conference.app.state)
    return {
        "transparent bytes": network.total_link_bytes() / inputs,
        "transparent delay": input_delay.mean,
        "transparent views": 1,   # WYSIWIS: everyone sees the same
    }


def run_aware(seed, members_count):
    network = members_network(members_count)
    env = network.env
    shared = AwareSharedObject(network)
    members = ["member-{}".format(i) for i in range(members_count)]
    for i, member in enumerate(members):
        shared.join(member,
                    view=identical_view if i % 2 == 0 else summary_view)
    rng = RandomStreams(seed).stream("aware")
    input_delay = Tally("delay")

    def participant(env, member):
        for i in range(INPUTS_PER_MEMBER):
            yield env.timeout(exponential(rng, THINK_MEAN))
            start = env.now
            shared.update(member, "k{}".format(i),
                          "edit {} of a long paragraph by {}".format(
                              i, member))
            input_delay.record(env.now - start)

    for member in members:
        env.process(participant(env, member))
    env.run()
    return {
        "aware bytes": network.total_link_bytes() / shared.counters["updates"],
        "aware delay": input_delay.mean,
        "aware views": len({str(shared.presented[member][-1][2])
                            for member in members}),
    }


def run(seed, members_count):
    return {**run_transparent(seed, members_count),
            **run_aware(seed, members_count)}


def claim_holds(rows):
    return all(row["transparent bytes"] > row["aware bytes"]
               and row["transparent delay"] > row["aware delay"] == 0.0
               and row["transparent views"] == 1 < row["aware views"]
               for row in rows)


def test_a5_sharing_architectures():
    sweeps = sweep(run, GROUP_SIZES)
    print_sweep("A5  transparent vs aware sharing as the group grows",
                "members", GROUP_SIZES, sweeps,
                {"transparent B/input": "transparent bytes",
                 "aware B/input": "aware bytes",
                 "transparent delay (s)": "transparent delay",
                 "aware delay (s)": "aware delay",
                 "transparent views": "transparent views",
                 "aware views": "aware views"})
    check(sweeps, claim_holds, "(transparent ships more, waits and shows "
          "one view; aware presents at once, tailored)")
