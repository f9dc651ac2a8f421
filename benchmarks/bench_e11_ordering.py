"""E11 — ordering guarantees vs latency in group communication (§3.1/§4.2.2).

Cooperative sessions need messages delivered in an order users can make
sense of — but stronger orderings cost latency.  Five members broadcast
over a jittery WAN; some messages are *replies* to messages the sender
just delivered (real causal dependencies).  Protocols compared on one
trace:

* unordered — cheapest, but replies can arrive before their originals;
* FIFO — per-sender order only; cross-sender causality still breaks;
* causal — vector-clock hold-back: no reply ever precedes its original;
* total — sequencer: identical delivery sequence everywhere, at the cost
  of the extra hop through the sequencer.
"""

from benchmarks._util import print_table, run_once
from repro.groups import ProcessGroup
from repro.net import Network, wan
from repro.sim import Environment, RandomStreams, Tally, exponential

MEMBERS = 5
MESSAGES_PER_MEMBER = 12
REPLY_PROBABILITY = 0.5
#: Jitter large relative to the base latency — e.g. congested Internet
#: paths — so cross-sender reordering actually occurs.
JITTER = 0.08
SITE_LATENCY = 0.01


def run_protocol(ordering):
    env = Environment()
    topo = wan(env, sites=MEMBERS, hosts_per_site=1,
               site_latency=SITE_LATENCY, jitter=JITTER, seed=61)
    net = Network(env, topo)
    group = ProcessGroup(net, "session", ordering=ordering)
    members = ["site{}.host0".format(i) for i in range(MEMBERS)]
    endpoints = {member: group.join(member) for member in members}
    rng = RandomStreams(62).stream("order-" + ordering)
    latency = Tally("latency")
    sent_at = {}
    #: ground-truth causal pairs: reply id -> original id.
    causes = {}

    for member, endpoint in endpoints.items():
        def on_deliver(message, member=member,
                       endpoint=endpoint):
            latency.record(env.now - message.sent_at)
            payload = message.payload
            if payload["kind"] == "original" \
                    and rng.random() < REPLY_PROBABILITY \
                    and payload["replied"] is False \
                    and message.sender != member:
                payload["replied"] = True
                reply_id = "reply-{}-{}".format(member, payload["id"])
                causes[reply_id] = payload["id"]
                sent_at[reply_id] = env.now
                endpoint.broadcast({"kind": "reply", "id": reply_id,
                                    "replied": True}, size=100)
        endpoint.on_deliver(on_deliver)

    def chatter(env, member, index):
        endpoint = endpoints[member]
        for i in range(MESSAGES_PER_MEMBER):
            yield env.timeout(exponential(rng, 0.2))
            message_id = "{}-{}".format(member, i)
            sent_at[message_id] = env.now
            endpoint.broadcast({"kind": "original", "id": message_id,
                                "replied": False}, size=100)

    for index, member in enumerate(members):
        env.process(chatter(env, member, index))
    env.run()

    # Count causal violations: a reply delivered before its original.
    violations = 0
    for endpoint in endpoints.values():
        seen_positions = {m.payload["id"]: pos for pos, m in
                          enumerate(endpoint.delivered_log)}
        for reply_id, original_id in causes.items():
            if reply_id in seen_positions \
                    and original_id in seen_positions \
                    and seen_positions[reply_id] < \
                    seen_positions[original_id]:
                violations += 1
    # Total order: do all members deliver the identical sequence?
    sequences = [[m.payload["id"] for m in endpoint.delivered_log]
                 for endpoint in endpoints.values()]
    common = [seq for seq in sequences if len(seq) == len(sequences[0])]
    identical = all(seq == sequences[0] for seq in common) \
        and len(common) == len(sequences)
    return {
        "latency": latency,
        "violations": violations,
        "identical_sequences": identical,
        "delivered": sum(len(endpoint.delivered_log)
                         for endpoint in endpoints.values()),
    }


def run_experiment():
    return {ordering: run_protocol(ordering)
            for ordering in ("unordered", "fifo", "causal", "total")}


def test_e11_ordering(benchmark):
    results = run_once(benchmark, run_experiment)
    rows = [(ordering, stats["delivered"],
             stats["latency"].mean * 1000,
             stats["latency"].p95 * 1000,
             stats["violations"],
             "yes" if stats["identical_sequences"] else "no")
            for ordering, stats in results.items()]
    print_table(
        "E11  ordering protocols: delivery latency vs guarantees",
        ["ordering", "deliveries", "mean lat (ms)", "p95 lat (ms)",
         "causal violations", "identical sequences"],
        rows)
    # The published rows (EXPERIMENTS.md §E11), exactly: the trace is
    # seeded, so a drift here is a behaviour change in groups or net.
    # Shape: weak orderings violate causality on a jittery network,
    # causal and total never do.
    assert {ordering: (stats["delivered"], stats["violations"])
            for ordering, stats in results.items()} == {
        "unordered": (585, 26), "fifo": (585, 22),
        "causal": (585, 0), "total": (595, 0)}
    # Total order gives identical sequences, at higher latency than
    # unordered (the sequencer hop).
    assert results["total"]["identical_sequences"]
    assert results["total"]["latency"].mean > \
        results["unordered"]["latency"].mean
    benchmark.extra_info["causal_cost_ms"] = (
        results["causal"]["latency"].mean
        - results["unordered"]["latency"].mean) * 1000
