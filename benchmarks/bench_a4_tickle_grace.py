"""A4 (ablation) — tuning the tickle lock's grace period (§4.2.1).

Tickle locks (Greif & Sarin) transfer a lock away from an *idle* holder.
The grace period is the design knob: too short and active holders get
robbed mid-thought (disruptive takeovers); too long and the mechanism
degenerates into a hard lock (idle time is never reclaimed).

One workload — holders alternating active editing (touching the grant)
with distractions — is run across a grace sweep.  Reported: waiting
time, takeovers, and *wrongful* takeovers (the holder was distracted for
less than a social "I'm still here" threshold).

Declared claim, per seed: the hard-lock limit takes nothing over and
waits at least as long as a moderate (2 s) grace; the shortest grace
robs active holders; the moderate grace takes over, robs no more often
than the shortest, and waits less than the hard lock.
"""

from benchmarks._util import check, print_sweep, sweep
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


def run(seed, grace):
    env = Environment()
    table = LockTable(env, style=TICKLE, tickle_grace=grace)
    rng = RandomStreams(seed).stream("a4-{}".format(grace))
    wait = Tally("wait")
    takeovers = [0]
    wrongful = [0]

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
    return {"wait": wait.mean, "takeovers": takeovers[0],
            "wrongful": wrongful[0], "makespan": env.now}


def claim_holds(rows):
    shortest, moderate, hard = rows[0], rows[GRACES.index(2.0)], rows[-1]
    return (hard["takeovers"] == 0
            and hard["wait"] >= moderate["wait"]
            and shortest["wrongful"] > 0
            and moderate["takeovers"] > 0
            and moderate["wrongful"] <= shortest["wrongful"]
            and moderate["wait"] < hard["wait"])


def test_a4_tickle_grace():
    sweeps = sweep(run, GRACES)
    print_sweep(
        "A4  tickle grace period sweep (idle-prone holders)", "grace",
        ["hard lock" if grace >= 1e9 else "{:g}s".format(grace)
         for grace in GRACES], sweeps,
        {"mean wait (s)": "wait", "takeovers": "takeovers",
         "wrongful takeovers": "wrongful", "makespan (s)": "makespan"})
    check(sweeps, claim_holds, "(short graces rob active holders; a "
          "moderate grace reclaims idle time; the hard limit never does)")
