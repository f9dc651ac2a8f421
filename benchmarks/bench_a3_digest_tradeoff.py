"""A3 (ablation) — continuous awareness vs Portholes digests (§3.3.2).

Portholes supported awareness *asynchronously*: periodic low-fidelity
summaries instead of a continuous event stream.  The trade is load
against freshness.  One bursty activity trace is delivered to a work
group as (a) continuous events and (b) digests at three intervals; we
measure deliveries per subscriber and the staleness (age of information
when it reaches the subscriber).  The actors work at one host of a LAN
and the colleagues, with the digest service, at the other, so every
action reaches them as one awareness datagram.

Declared claim, per seed: continuous awareness delivers every action
after exactly the LAN's one-way delay (no staleness beyond the hop);
digests deliver far less often (the 30 s digest under a quarter of the
continuous deliveries, the 120 s one fewer still), each digest's
staleness is bounded by its interval plus that hop, and the longer
interval is the staler.
"""

from benchmarks._util import check, one_way, print_sweep, sweep
from repro.awareness import AwarenessBus, DigestService
from repro.awareness.events import EVENT_SIZE
from repro.net import Network, lan
from repro.net.packet import HEADER_BYTES
from repro.obs.metrics import Tally
from repro.sim import Environment, RandomStreams, exponential

SUBSCRIBERS = 5
ACTORS = 6
ACTIONS_PER_ACTOR = 40
THINK_MEAN = 6.0
MODES = (0.0, 30.0, 120.0)   # digest interval; 0 is continuous events
ACTORS_HOST, GROUP_HOST = "host0", "host1"


def generate_activity(env, bus, seed):
    rng = RandomStreams(seed).stream("a3")

    def actor(env, name):
        for i in range(ACTIONS_PER_ACTOR):
            yield env.timeout(exponential(rng, THINK_MEAN))
            bus.publish(name, "artefact-{}".format(i % 7), "edit",
                        host=ACTORS_HOST)

    for i in range(ACTORS):
        env.process(actor(env, "actor-{}".format(i)))


def run(seed, interval):
    env = Environment()
    topology = lan(env, hosts=2)
    bus = AwarenessBus(Network(env, topology))
    service = (DigestService(bus, GROUP_HOST, interval=interval)
               if interval else None)
    deliveries = [0]
    staleness = Tally("staleness")

    def deliver(events):
        deliveries[0] += 1
        for event in events:
            staleness.record(env.now - event.at)

    for i in range(SUBSCRIBERS):
        name = "colleague-{}".format(i)
        if service is None:
            bus.subscribe(name, lambda event: deliver([event]),
                          host=GROUP_HOST)
        else:
            service.subscribe(name, lambda digest: deliver(digest.events))
    generate_activity(env, bus, seed)
    env.run(until=ACTORS * ACTIONS_PER_ACTOR * THINK_MEAN)
    return {"deliveries": deliveries[0] / SUBSCRIBERS,
            "mean staleness": staleness.mean,
            "max staleness": staleness.maximum,
            "one-way": one_way(topology, ACTORS_HOST, GROUP_HOST,
                               EVENT_SIZE + HEADER_BYTES)}


def claim_holds(rows):
    continuous, digest_30, digest_120 = rows
    hop = continuous["one-way"]
    return (continuous["deliveries"] == ACTORS * ACTIONS_PER_ACTOR
            and abs(continuous["max staleness"] - hop) <= 1e-9
            and digest_30["deliveries"] < continuous["deliveries"] / 4
            and digest_120["deliveries"] < digest_30["deliveries"]
            and digest_30["max staleness"] <= 30.0 + hop + 1e-9
            and digest_120["max staleness"] <= 120.0 + hop + 1e-9
            and digest_120["mean staleness"] > digest_30["mean staleness"])


def test_a3_digest_tradeoff():
    sweeps = sweep(run, MODES)
    print_sweep(
        "A3  continuous awareness vs Portholes digests "
        "({} actors x {} actions)".format(ACTORS, ACTIONS_PER_ACTOR),
        "mode", ["digest every {:.0f}s".format(interval) if interval
                 else "continuous events" for interval in MODES], sweeps,
        {"deliveries per subscriber": "deliveries",
         "mean staleness (s)": "mean staleness",
         "max staleness (s)": "max staleness"})
    check(sweeps, claim_holds, "(digests cut deliveries; staleness bounded "
          "by the interval plus the hop)")
