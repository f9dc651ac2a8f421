"""E12 — floor-control policies trade fairness vs responsiveness (§3.2.2).

Collaboration-transparent conferencing needs a floor policy so a single-
user application receives one coherent input stream.  Six participants
contend for the floor over a meeting; policies compared on one seeded
demand pattern (one participant is a chronic floor-hog):

* free — access on arrival, but simultaneous speakers collide;
* fcfs — ordered, but the hog's long turns inflate everyone's wait;
* round-robin — preemption bounds the hog;
* chaired — a human chair serialises requests after a 0.5 s decision;
* negotiated — the holder is asked to yield (Colab's informal style).

Declared claim, per seed, every floor at the chair's host on the
speakers' switch: the free floor's longest wait is exactly a request's
round trip there, but it collides; FCFS never collides but waits longer
on average; round-robin preempts the hog and waits less than FCFS.
"""

from benchmarks._util import check, one_way, print_sweep, sweep
from repro.net import Network, lan
from repro.net.packet import HEADER_BYTES
from repro.sessions import FLOOR_POLICIES, NegotiatedFloor, RoundRobinFloor
from repro.sim import Environment, RandomStreams, exponential

PARTICIPANTS = 6
TURNS_EACH = 8
THINK_MEAN = 3.0
TURN_MEAN = 2.0
HOG_TURN = 12.0     # participant 0 talks forever given the chance
CHAIR = "speaker-{}".format(PARTICIPANTS)  # a seat that never speaks


def round_trip(topology):
    """Request, the ack the chair sends ahead of the grant, and grant."""
    [link] = topology.path(CHAIR, "switch")
    return (2 * one_way(topology, "speaker-0", CHAIR, HEADER_BYTES)
            + link.transmission_delay(HEADER_BYTES))


def make_policy(name, network):
    if name == "round-robin":
        return RoundRobinFloor(network, CHAIR, quantum=3.0)
    if name == "negotiated":
        return NegotiatedFloor(
            network, CHAIR, negotiation_latency=0.5,
            yields=lambda holder, requester: holder != "speaker-0")
    return FLOOR_POLICIES[name](network, CHAIR)


def run(seed, name):
    env = Environment()
    network = Network(env, lan(env, PARTICIPANTS + 1, prefix="speaker-"))
    floor = make_policy(name, network)
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
        "max excess": floor.wait_time.maximum - round_trip(network.topology),
        "turn spread": max(turns) - min(turns),
        "collisions": floor.counters["collisions"],
        "preemptions": floor.counters["preemptions"],
        "makespan": env.now,
    }


POLICIES = ("free", "fcfs", "round-robin", "chaired", "negotiated")


def claim_holds(rows):
    free, fcfs, rr = rows[:3]
    return (abs(free["max excess"]) < 1e-12
            and free["collisions"] > 0 and fcfs["collisions"] == 0
            and fcfs["wait"] > free["wait"]
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
