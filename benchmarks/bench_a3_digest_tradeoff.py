"""A3 (ablation) — continuous awareness vs Portholes digests (§3.3.2).

Portholes supported awareness *asynchronously*: periodic low-fidelity
summaries instead of a continuous event stream.  The trade is load
against freshness.  One bursty activity trace is delivered to a work
group as (a) continuous events and (b) digests at three intervals; we
measure deliveries per subscriber and the staleness (age of information
when it reaches the subscriber).
"""

from benchmarks._util import print_table, run_once
from repro.awareness import AwarenessBus, DigestService
from repro.obs.metrics import Tally
from repro.sim import Environment, RandomStreams, exponential

SUBSCRIBERS = 5
ACTORS = 6
ACTIONS_PER_ACTOR = 40
THINK_MEAN = 6.0
DIGEST_INTERVALS = (30.0, 120.0)


def generate_activity(env, bus):
    rng = RandomStreams(111).stream("a3")

    def actor(env, name):
        for i in range(ACTIONS_PER_ACTOR):
            yield env.timeout(exponential(rng, THINK_MEAN))
            bus.publish(name, "artefact-{}".format(i % 7), "edit")

    for i in range(ACTORS):
        env.process(actor(env, "actor-{}".format(i)))


def run_continuous():
    env = Environment()
    bus = AwarenessBus(env)
    deliveries = [0]
    staleness = Tally("staleness")
    for i in range(SUBSCRIBERS):
        def on_event(event, i=i):
            deliveries[0] += 1
            staleness.record(env.now - event.at)
        bus.subscribe("colleague-{}".format(i), on_event)
    generate_activity(env, bus)
    env.run()
    return {"deliveries": deliveries[0] / SUBSCRIBERS,
            "staleness": staleness}


def run_digested(interval):
    env = Environment()
    bus = AwarenessBus(env)
    service = DigestService(env, bus, interval=interval)
    deliveries = [0]
    staleness = Tally("staleness")
    for i in range(SUBSCRIBERS):
        def on_digest(digest, i=i):
            deliveries[0] += 1
            for event in digest.events:
                staleness.record(env.now - event.at)
        service.subscribe("colleague-{}".format(i), on_digest)
    generate_activity(env, bus)
    env.run(until=ACTORS * ACTIONS_PER_ACTOR * THINK_MEAN)
    return {"deliveries": deliveries[0] / SUBSCRIBERS,
            "staleness": staleness}


def run_experiment():
    results = {"continuous events": run_continuous()}
    for interval in DIGEST_INTERVALS:
        results["digest every {:.0f}s".format(interval)] = \
            run_digested(interval)
    return results


def test_a3_digest_tradeoff(benchmark):
    results = run_once(benchmark, run_experiment)
    rows = [(name, stats["deliveries"], stats["staleness"].mean,
             stats["staleness"].maximum)
            for name, stats in results.items()]
    print_table(
        "A3  continuous awareness vs Portholes digests "
        "({} actors x {} actions)".format(ACTORS, ACTIONS_PER_ACTOR),
        ["mode", "deliveries per subscriber", "mean staleness (s)",
         "max staleness (s)"],
        rows)
    continuous = results["continuous events"]
    digest_30 = results["digest every 30s"]
    digest_120 = results["digest every 120s"]
    # Continuous: one delivery per action, zero staleness.
    assert continuous["deliveries"] == ACTORS * ACTIONS_PER_ACTOR
    assert continuous["staleness"].maximum == 0.0
    # Digests: far fewer deliveries, staleness bounded by the interval.
    assert digest_30["deliveries"] < continuous["deliveries"] / 4
    assert digest_120["deliveries"] < digest_30["deliveries"]
    assert digest_30["staleness"].maximum <= 30.0 + 1e-9
    assert digest_120["staleness"].maximum <= 120.0 + 1e-9
    assert digest_120["staleness"].mean > digest_30["staleness"].mean
    benchmark.extra_info["reduction_30s"] = (
        continuous["deliveries"] / digest_30["deliveries"])
