"""E12 — floor-control policies trade fairness vs responsiveness (§3.2.2).

Collaboration-transparent conferencing needs a floor policy so a single-
user application receives one coherent input stream.  Six participants
contend for the floor over a meeting; policies compared on one seeded
demand pattern (one participant is a chronic floor-hog):

* free — instant access, but simultaneous speakers collide;
* fcfs — ordered, but the hog's long turns inflate everyone's wait;
* round-robin — preemption bounds the hog;
* chaired — a human chair filters and serialises (decision latency);
* negotiated — the holder is asked to yield (Colab's informal style).
"""

from benchmarks._util import print_table, run_once
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
        return ChairedFloor(env, chair="chair", decision_latency=0.5)
    return NegotiatedFloor(
        env, yields=lambda holder, requester: holder != "speaker-0",
        negotiation_latency=0.5)


def run_policy(name):
    env = Environment()
    floor = make_policy(name, env)
    rng = RandomStreams(71).stream("floor-" + name)
    preempted = []
    if isinstance(floor, RoundRobinFloor):
        floor.on_preempt = preempted.append

    def speaker(env, index):
        member = "speaker-{}".format(index)
        for _ in range(TURNS_EACH):
            yield env.timeout(exponential(rng, THINK_MEAN))
            try:
                yield floor.request(member)
            except Exception:
                continue  # chair rejection: sit this turn out
            hold = HOG_TURN if index == 0 \
                else exponential(rng, TURN_MEAN)
            yield env.timeout(hold)
            if floor.holds(member):
                floor.release(member)

    for index in range(PARTICIPANTS):
        env.process(speaker(env, index))
    env.run()
    counts = floor.turn_counts()
    values = [counts.get("speaker-{}".format(i), 0)
              for i in range(PARTICIPANTS)]
    mean_turns = sum(values) / len(values)
    fairness = max(values) - min(values)
    return {
        "wait": floor.wait_time,
        "turns_spread": fairness,
        "collisions": floor.counters["collisions"],
        "preemptions": floor.counters["preemptions"],
        "makespan": env.now,
    }


def run_experiment():
    policies = ("free", "fcfs", "round-robin", "chaired", "negotiated")
    return {name: run_policy(name) for name in policies}


def test_e12_floor_control(benchmark):
    results = run_once(benchmark, run_experiment)
    rows = [(name, stats["wait"].mean, stats["wait"].p95,
             stats["turns_spread"], stats["collisions"],
             stats["preemptions"], stats["makespan"])
            for name, stats in results.items()]
    print_table(
        "E12  floor policies with one floor-hog among six speakers",
        ["policy", "mean wait (s)", "p95 wait (s)", "turn spread",
         "collisions", "preemptions", "meeting length (s)"],
        rows)
    free = results["free"]
    fcfs = results["fcfs"]
    rr = results["round-robin"]
    # Free floor: zero wait but garbled input (collisions).
    assert free["wait"].maximum == 0.0
    assert free["collisions"] > 0
    # Ordered policies eliminate collisions at the cost of waiting.
    assert fcfs["collisions"] == 0
    assert fcfs["wait"].mean > 0
    # Round-robin bounds the hog: preemptions occur and waits shrink
    # relative to FCFS under the same demand.
    assert rr["preemptions"] > 0
    assert rr["wait"].mean < fcfs["wait"].mean
    benchmark.extra_info["fcfs_wait"] = fcfs["wait"].mean
    benchmark.extra_info["rr_wait"] = rr["wait"].mean
