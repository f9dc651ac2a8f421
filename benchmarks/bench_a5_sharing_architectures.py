"""A5 (ablation) — collaboration-transparent vs collaboration-aware
sharing (§3.2.2).

Transparent sharing puts an unmodified single-user application in front
of the group by multicasting its *display* to every member and forcing
turn-taking on input; aware sharing replicates the application's *state
changes* and lets each member present them locally.

One editing session is run through both architectures while sweeping the
group size.  Measured: bytes shipped per input event (full display
multicast vs small state delta), input serialisation delay (floor wait
vs none), and tailorability (distinct presentations possible).
"""

from benchmarks._util import print_table, run_once
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
DELTA_SIZE = 200           # a state delta, bytes
THINK_MEAN = 1.0
EDIT_HOLD = 0.5


def run_transparent(members_count):
    env = Environment()
    floor = FcfsFloor(env)
    conference = TransparentConference(env, SingleUserApp(), floor,
                                       display_size=DISPLAY_SIZE,
                                       display_latency=0.02)
    members = ["member-{}".format(i) for i in range(members_count)]
    for member in members:
        conference.join(member)
    rng = RandomStreams(131).stream("transparent")
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
    inputs = conference.counters["inputs"]
    return {
        "bytes_per_input": conference.display_bytes_sent / inputs,
        "input_delay": input_delay,
        "distinct_presentations": 1,   # WYSIWIS: everyone sees the same
    }


def run_aware(members_count):
    env = Environment()
    shared = AwareSharedObject(env)
    members = ["member-{}".format(i) for i in range(members_count)]
    for i, member in enumerate(members):
        shared.join(member,
                    view=identical_view if i % 2 == 0 else summary_view)
    rng = RandomStreams(131).stream("aware")
    input_delay = Tally("delay")
    bytes_sent = [0]

    def participant(env, member):
        for i in range(INPUTS_PER_MEMBER):
            yield env.timeout(exponential(rng, THINK_MEAN))
            start = env.now
            shared.update(member, "k{}".format(i),
                          "edit {} of a long paragraph by {}".format(
                              i, member))
            bytes_sent[0] += DELTA_SIZE * (members_count - 1)
            input_delay.record(env.now - start)

    for member in members:
        env.process(participant(env, member))
    env.run()
    presentations = set()
    for member in members:
        presentations.add(str(shared.presented[member][-1][2]))
    return {
        "bytes_per_input": bytes_sent[0] / shared.counters["updates"],
        "input_delay": input_delay,
        "distinct_presentations": len(presentations),
    }


def run_experiment():
    rows = []
    for n in GROUP_SIZES:
        transparent = run_transparent(n)
        aware = run_aware(n)
        rows.append((n,
                     transparent["bytes_per_input"],
                     aware["bytes_per_input"],
                     transparent["input_delay"].mean,
                     aware["input_delay"].mean,
                     transparent["distinct_presentations"],
                     aware["distinct_presentations"]))
    return rows


def test_a5_sharing_architectures(benchmark):
    rows = run_once(benchmark, run_experiment)
    print_table(
        "A5  transparent vs aware sharing as the group grows",
        ["members", "transparent B/input", "aware B/input",
         "transparent delay (s)", "aware delay (s)",
         "transparent views", "aware views"],
        rows)
    for (n, t_bytes, a_bytes, t_delay, a_delay,
         t_views, a_views) in rows:
        # Transparent ships the whole display to every member; aware
        # ships small deltas: far cheaper per input at any size.
        assert t_bytes / a_bytes > 20
        # Transparent inputs pass through the floor + display pipeline;
        # aware updates present immediately.
        assert a_delay == 0.0
        assert t_delay > 0.0
        # Transparent is strictly WYSIWIS; aware tailors per member.
        assert t_views == 1
        if n >= 2:
            assert a_views == 2
    benchmark.extra_info["byte_ratio_at_8"] = rows[-1][1] / rows[-1][2]
