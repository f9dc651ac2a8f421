"""E7 — QoS contracts keep continuous media intact (§4.2.2-i/ii).

*"If the required rate of presentation is not met, the integrity of these
media is destroyed"* — so QoS must be agreed, enforced end-to-end and
monitored, with renegotiation on degradation.

A 25 fps video stream crosses a dumbbell bottleneck that three bulk
flows flood; the swept parameter is the flood's offered load as a share
of the bottleneck, and the seed draws each flooder's start and packet
gaps (Poisson).  Regimes compared on the same flood:

* **best effort** — no reservation: video frames queue behind the flood;
* **QoS reserved** — admission control + reserved priority;
* **renegotiated** — reserved, and mid-stream the application accepts
  half its bandwidth and halves its frames.

Declared claim, per seed: best effort's deadline-miss rate grows with
the flood (never falling, and higher at the heaviest load than at the
lightest), while the reserved stream, downgraded mid-stream or not,
misses no frame at any load.
"""

from benchmarks._util import check, print_sweep, sweep
from repro.net import Network, dumbbell
from repro.qos import QoSBroker, QoSMonitor, QoSParameters
from repro.sim import Environment, RandomStreams, exponential
from repro.streams import MediaSink, MediaSource, StreamBinding

RATE = 25.0
FRAME = 4000               # bytes -> 800 kb/s of video
BOTTLENECK = 2e6           # 2 Mb/s
FLOODERS = 3
FLOOD_PACKET = 9000        # bytes
DURATION = 8.0
REGIMES = ("best effort", "QoS reserved", "renegotiated")
LOADS = (0.25, 0.5, 1.0)   # the flood's offered load / the bottleneck
PARAMS = [(regime, load) for regime in REGIMES for load in LOADS]


def flood(env, network, index, load, rng):
    src = network.host("left{}".format(index + 1))
    dst = "right{}".format(index + 1)
    network.host(dst)
    mean_gap = FLOOD_PACKET * 8 * FLOODERS / (load * BOTTLENECK)

    def pump(env):
        yield env.timeout(rng.uniform(0, mean_gap))
        while env.now < DURATION:
            src.send(dst, size=FLOOD_PACKET)
            yield env.timeout(exponential(rng, mean_gap))

    env.process(pump(env))


def run(seed, param):
    regime, load = param
    env = Environment()
    network = Network(env, dumbbell(
        env, left=FLOODERS + 1, right=FLOODERS + 1,
        bottleneck_bandwidth=BOTTLENECK, bottleneck_latency=0.01))
    contract = monitor = None
    if regime != "best effort":
        broker = QoSBroker(network)
        desired = QoSParameters(throughput=RATE * FRAME * 8,
                                latency=0.15, jitter=0.1, loss=0.05)
        contract = broker.negotiate("left0", "right0", desired,
                                    minimum=desired.scaled(0.4))
        monitor = QoSMonitor(env, contract, window=1.0,
                             expected_frames_per_window=RATE)
    binding = StreamBinding(network, "left0", "right0",
                            contract=contract, monitor=monitor)
    sink = MediaSink(env, "viewer", target_delay=0.15)
    binding.attach_sink(sink)
    source = MediaSource(env, "camera", binding.send_frame, rate=RATE,
                         frame_size=FRAME)
    rng = RandomStreams(seed).stream("flood")
    for i in range(FLOODERS):
        flood(env, network, i, load, rng)
    source.start(duration=DURATION)
    if regime == "renegotiated":
        def downgrade(env):
            yield env.timeout(DURATION / 2)
            broker.renegotiate(contract, contract.agreed.throughput * 0.5)
            source.frame_size = FRAME // 2
        env.process(downgrade(env))
    env.run(until=DURATION + 2.0)
    return {"arrived": sink.counters["received"],
            "played": sink.counters["played"], "miss rate": sink.miss_rate}


def claim_holds(rows):
    by_regime = [rows[i:i + len(LOADS)]
                 for i in range(0, len(rows), len(LOADS))]
    best_effort = [row["miss rate"] for row in by_regime[0]]
    return (best_effort == sorted(best_effort)
            and best_effort[-1] > best_effort[0]
            and all(row["miss rate"] == 0
                    for reserved in by_regime[1:] for row in reserved))


def test_e7_qos():
    sweeps = sweep(run, PARAMS)
    print_sweep(
        "E7  video integrity across a flooded {:g} Mb/s bottleneck".format(
            BOTTLENECK / 1e6), "regime @ flood load",
        ["{} @ {:g}".format(regime, load) for regime, load in PARAMS],
        sweeps, {"frames arrived": "arrived", "played on time": "played",
                 "miss rate": "miss rate"})
    check(sweeps, claim_holds, "(best effort misses more as the flood "
          "grows; a reserved stream misses nothing)")
