"""E10 — disconnected operation for mobile cooperation (§4.2.2).

*"users are likely to be disconnected for significant periods of time"*
and *"new techniques will be required, for example, to cache significant
portions of the data on the mobile computer"*, with *"bulk updates"* on
reconnection.

A field engineer's day: a square-wave connectivity trace (connected on
radio / disconnected in the field), a stream of job reads and report
writes.  Regimes:

* **naive transparency** — every operation is one call to the server
  over the radio; a call the radio does not carry simply fails (the cost
  of pretending the network is always there);
* **caching + replay** — hoarded reads are served locally, writes queue
  in the replay log and reintegrate as a bulk update on reconnection.

Both regimes call the same ``StoreServer`` over the same radio link, so
every transfer takes the link's latency, bandwidth, jitter and loss.

Also measured: disconnection-tolerant QoS flags outages beyond the
accepted level, and the reintegration conflict rate when office-side
edits race the field edits.

Declared claim, per seed (one operation stream per seed, run through
both regimes): caching + replay succeeds on more operations than naive
transparency and on nearly all of them (over 95 %); every report written
in the field is accounted for — reintegrated at the server, surfaced as
a conflict, or still queued when the day ends; the office's race
produces at least one replay conflict and an outage beyond the accepted
level raises an alert.
"""

from benchmarks._util import check, print_sweep, sweep
from repro.concurrency import SharedStore
from repro.errors import DisconnectedError, MobilityError
from repro.mobility import (
    DisconnectionTolerantContract,
    MobileCache,
    MobileHost,
    StoreServer,
)
from repro.net import ConnectivityLevel, ConnectivitySchedule, Network, \
    Topology, periodic_trace
from repro.net.transport import RpcEndpoint, RpcError
from repro.sim import Environment, RandomStreams, exponential

DAY = 2000.0
CONNECTED_SPELL = 120.0
DISCONNECTED_SPELL = 240.0
OP_THINK = 20.0
JOBS = ["job/{}".format(i) for i in range(8)]


def build(env):
    topo = Topology(env)
    topo.add_link("depot", "server", latency=0.002)
    network = Network(env, topo)
    store = SharedStore("office")
    for i, job in enumerate(JOBS):
        store.write(job, "instructions {}".format(i), writer="dispatcher")
    server = StoreServer(network, "server", store)
    mobile = MobileHost(network, "laptop", "depot",
                        level=ConnectivityLevel.PARTIAL)
    trace = periodic_trace(CONNECTED_SPELL, DISCONNECTED_SPELL, total=DAY)
    ConnectivitySchedule(env, mobile.link, trace)
    return server, store, mobile


def engineer_ops(rng):
    """The day's operation stream: (think, kind, key)."""
    ops = []
    at = 0.0
    i = 0
    while at < DAY:
        think = exponential(rng, OP_THINK)
        at += think
        job = JOBS[i % len(JOBS)]
        kind = "read" if i % 3 else "write"
        ops.append((think, kind, job))
        i += 1
    return ops


def run_naive(seed):
    env = Environment()
    server, store, mobile = build(env)
    rpc = RpcEndpoint(mobile.host)
    ops = engineer_ops(RandomStreams(seed).stream("naive"))
    succeeded = [0]
    failed = [0]

    def day(env):
        for op, (think, kind, key) in enumerate(ops):
            yield env.timeout(think)
            try:
                if kind == "read":
                    yield rpc.call(server.host, "fetch", key)
                else:
                    yield rpc.call(server.host, "write",
                                   (op, key, "field note", None))
            except RpcError:
                failed[0] += 1      # the transparent call just fails
                continue
            succeeded[0] += 1

    env.process(day(env))
    env.run(until=DAY + 10)
    return {"succeeded": succeeded[0], "failed": failed[0],
            "conflicts": 0, "alerts": 0, "lost": 0}


def run_cached(seed):
    env = Environment()
    server, store, mobile = build(env)
    cache = MobileCache(mobile, server)
    ops = engineer_ops(RandomStreams(seed).stream("naive"))  # same stream
    succeeded = [0]
    failed = [0]
    alerts = [0]
    DisconnectionTolerantContract(
        env, mobile, max_outage=180.0,
        on_violation=lambda outage: alerts.__setitem__(
            0, alerts[0] + 1))

    def office_racer(env):
        # The dispatcher occasionally edits the same jobs.
        for i in range(4):
            yield env.timeout(DAY / 5)
            store.write(JOBS[0], "office update {}".format(i),
                        writer="dispatcher", at=env.now)

    def day(env):
        yield from cache.hoard(list(JOBS))
        reconnect_pending = [False]
        mobile.on_level_change(
            lambda level: reconnect_pending.__setitem__(
                0, level is not ConnectivityLevel.DISCONNECTED))
        for think, kind, key in ops:
            yield env.timeout(think)
            if reconnect_pending[0] and cache.pending_updates:
                yield from cache.reintegrate()
                reconnect_pending[0] = False
            try:
                if kind == "read":
                    yield from cache.read(key)
                else:
                    yield from cache.write(key, "field note")
                succeeded[0] += 1
            except (DisconnectedError, MobilityError):
                failed[0] += 1
        if mobile.connected and cache.pending_updates:
            yield from cache.reintegrate()

    env.process(office_racer(env))
    env.process(day(env))
    env.run(until=DAY + 200)
    counts = cache.counters
    return {"succeeded": succeeded[0], "failed": failed[0],
            "conflicts": len(cache.conflicts), "alerts": alerts[0],
            "lost": counts["writes:logged"] - counts["reintegrated"]
            - counts["conflicts"] - cache.pending_updates}


REGIMES = {"naive transparency": run_naive, "caching + replay": run_cached}


def run(seed, regime):
    row = REGIMES[regime](seed)
    row["operations"] = row["succeeded"] + row["failed"]
    row["success rate"] = row["succeeded"] / max(1, row["operations"])
    return row


def claim_holds(rows):
    naive, cached = rows
    return (cached["success rate"] > naive["success rate"]
            and cached["success rate"] > 0.95
            and cached["lost"] == 0
            and cached["conflicts"] >= 1      # the office raced the field
            and cached["alerts"] >= 1)        # outages beyond the level


def test_e10_mobility():
    sweeps = sweep(run, list(REGIMES))
    print_sweep(
        "E10  a field engineer's day across connectivity levels", "regime",
        list(REGIMES), sweeps,
        {"operations": "operations", "success rate": "success rate",
         "field writes lost": "lost", "replay conflicts": "conflicts",
         "outage alerts": "alerts"})
    check(sweeps, claim_holds, "(caching + replay beats transparency, "
          "loses no field write, detects the race and the outages)")
