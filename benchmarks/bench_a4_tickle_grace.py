"""A4 (ablation) — tuning the tickle lock's grace period (§4.2.1).

Tickle locks (Greif & Sarin) transfer a lock away from an *idle* holder.
The grace period is the design knob: too short and active holders get
robbed mid-thought (disruptive takeovers); too long and the mechanism
degenerates into a hard lock (idle time is never reclaimed).

One workload — holders alternating active editing (touching the grant)
with distractions — is run across a grace sweep.  Reported: waiting
time, takeovers, and *wrongful* takeovers (the holder was distracted for
less than a social "I'm still here" threshold).
"""

from benchmarks._util import print_table, run_once
from repro.concurrency import EXCLUSIVE, LockTable, TICKLE
from repro.obs.metrics import Tally
from repro.sim import Environment, RandomStreams, exponential

EDITORS = 4
ROUNDS = 10
EDIT_TIME = 1.0
DISTRACTION_MEAN = 6.0
STILL_THERE_THRESHOLD = 3.0     # distractions shorter than this are
                                # "still working" in the social sense
GRACES = (0.5, 2.0, 5.0, 20.0, 1e9)


def run_grace(grace):
    env = Environment()
    table = LockTable(env, style=TICKLE, tickle_grace=grace)
    rng = RandomStreams(121).stream("a4-{}".format(grace))
    wait = Tally("wait")
    takeovers = [0]
    wrongful = [0]
    idle_since = {}

    def on_takeover(grant, taker):
        takeovers[0] += 1
        idle = env.now - grant.last_activity
        if idle < STILL_THERE_THRESHOLD:
            wrongful[0] += 1

    table.on_takeover = on_takeover

    def editor(env, name):
        for _ in range(ROUNDS):
            yield env.timeout(exponential(rng, 2.0))
            start = env.now
            grant = yield table.acquire("doc", name, EXCLUSIVE)
            wait.record(env.now - start)
            # Active editing with periodic touches.
            for _ in range(4):
                yield env.timeout(EDIT_TIME / 4)
                if grant.revoked:
                    break
                grant.touch()
            if grant.revoked:
                continue
            # A distraction of random length, grant left idle.
            yield env.timeout(exponential(rng, DISTRACTION_MEAN))
            if not grant.revoked:
                grant.release()

    for i in range(EDITORS):
        env.process(editor(env, "editor-{}".format(i)))
    env.run()
    return {"wait": wait, "takeovers": takeovers[0],
            "wrongful": wrongful[0], "makespan": env.now}


def run_experiment():
    return {grace: run_grace(grace) for grace in GRACES}


def test_a4_tickle_grace(benchmark):
    results = run_once(benchmark, run_experiment)
    rows = [("hard lock" if grace >= 1e9 else "{:g}s".format(grace),
             stats["wait"].mean, stats["takeovers"],
             stats["wrongful"], stats["makespan"])
            for grace, stats in results.items()]
    print_table(
        "A4  tickle grace period sweep (idle-prone holders)",
        ["grace", "mean wait (s)", "takeovers", "wrongful takeovers",
         "makespan (s)"],
        rows)
    shortest = results[GRACES[0]]
    moderate = results[2.0]
    hard = results[GRACES[-1]]
    # The hard-lock limit: no takeovers, maximal waiting.
    assert hard["takeovers"] == 0
    assert hard["wait"].mean >= moderate["wait"].mean
    # A very short grace robs active holders.
    assert shortest["wrongful"] > 0
    # A moderate grace reclaims idle time without wrongful takeovers
    # dominating.
    assert moderate["takeovers"] > 0
    assert moderate["wrongful"] <= shortest["wrongful"]
    assert moderate["wait"].mean < hard["wait"].mean
    benchmark.extra_info["hard_wait"] = hard["wait"].mean
    benchmark.extra_info["moderate_wait"] = moderate["wait"].mean
