"""E12 — floor-control policies trade fairness vs responsiveness (§3.2.2).

Collaboration-transparent conferencing needs a floor policy so a single-
user application receives one coherent input stream.  Six participants
contend for the floor over a meeting; policies compared on one seeded
demand pattern (one participant is a chronic floor-hog):

* free — instant access, but simultaneous speakers collide;
* fcfs — ordered, but the hog's long turns inflate everyone's wait;
* round-robin — preemption bounds the hog;
* chaired — a human chair serialises requests after a 0.5 s decision;
* negotiated — the holder is asked to yield (Colab's informal style).

Declared claim, per seed: the free floor never waits but collides; FCFS
never collides but waits; round-robin preempts the hog and waits less
than FCFS under the same demand.
"""

from benchmarks._util import check, print_sweep, sweep
from repro.sessions import (
    ChairedFloor,
    FcfsFloor,
    FreeFloor,
    NegotiatedFloor,
    RoundRobinFloor,
)
from repro.sim import Environment, RandomStreams, exponential

PARTICIPANTS = 6
TURNS_EACH = 8
THINK_MEAN = 3.0
TURN_MEAN = 2.0
HOG_TURN = 12.0     # participant 0 talks forever given the chance


def make_policy(name, env):
    if name == "free":
        return FreeFloor(env)
    if name == "fcfs":
        return FcfsFloor(env)
    if name == "round-robin":
        return RoundRobinFloor(env, quantum=3.0)
    if name == "chaired":
        return ChairedFloor(env, chair="chair")
    return NegotiatedFloor(
        env, yields=lambda holder, requester: holder != "speaker-0",
        negotiation_latency=0.5)


def run(seed, name):
    env = Environment()
    floor = make_policy(name, env)
    rng = RandomStreams(seed).stream("floor-" + name)

    def speaker(env, index):
        member = "speaker-{}".format(index)
        for _ in range(TURNS_EACH):
            yield env.timeout(exponential(rng, THINK_MEAN))
            yield floor.request(member)
            hold = HOG_TURN if index == 0 \
                else exponential(rng, TURN_MEAN)
            yield env.timeout(hold)
            if floor.holds(member):
                floor.release(member)

    for index in range(PARTICIPANTS):
        env.process(speaker(env, index))
    env.run()
    counts = floor.turn_counts()
    turns = [counts.get("speaker-{}".format(i), 0)
             for i in range(PARTICIPANTS)]
    return {
        "wait": floor.wait_time.mean,
        "max wait": floor.wait_time.maximum,
        "turn spread": max(turns) - min(turns),
        "collisions": floor.counters["collisions"],
        "preemptions": floor.counters["preemptions"],
        "makespan": env.now,
    }


POLICIES = ("free", "fcfs", "round-robin", "chaired", "negotiated")


def claim_holds(rows):
    free, fcfs, rr = rows[:3]
    return (free["max wait"] == 0.0 and free["collisions"] > 0
            and fcfs["collisions"] == 0 and fcfs["wait"] > 0
            and rr["preemptions"] > 0 and rr["wait"] < fcfs["wait"])


def test_e12_floor_control():
    sweeps = sweep(run, POLICIES)
    print_sweep(
        "E12  floor policies with one floor-hog among six speakers",
        "policy", POLICIES, sweeps,
        {"mean wait (s)": "wait", "turn spread": "turn spread",
         "collisions": "collisions", "preemptions": "preemptions",
         "meeting length (s)": "makespan"})
    check(sweeps, claim_holds, "(free collides; FCFS waits; round-robin "
          "preempts the hog and waits less than FCFS)")
