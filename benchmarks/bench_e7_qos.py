"""E7 — QoS contracts keep continuous media intact (§4.2.2-i/ii).

*"If the required rate of presentation is not met, the integrity of these
media is destroyed"* — so QoS must be agreed, enforced end-to-end and
monitored, with renegotiation on degradation.

Setup: a video stream crosses a dumbbell bottleneck while bulk-transfer
flows flood the same link.  Regimes compared on one workload:

* **best effort** — no reservation: video frames queue behind the flood;
  deadline-miss rate collapses the stream;
* **QoS-reserved** — admission control + reserved priority: the video is
  isolated from the flood; the monitor sees clean windows;
* **renegotiation** — mid-stream the application downgrades its contract
  (half rate) and continues within the new agreement.
"""

from benchmarks._util import print_table, run_once
from repro.net import Network, dumbbell
from repro.qos import QoSBroker, QoSMonitor, QoSParameters
from repro.sim import Environment
from repro.streams import MediaSink, MediaSource, StreamBinding

RATE = 25.0
FRAME = 4000               # bytes -> 800 kb/s of video
BOTTLENECK = 2e6           # 2 Mb/s
FLOODERS = 3
FLOOD_PACKET = 9000        # bytes, back-to-back
DURATION = 8.0


def build(env):
    topo = dumbbell(env, left=FLOODERS + 1, right=FLOODERS + 1,
                    bottleneck_bandwidth=BOTTLENECK,
                    bottleneck_latency=0.01)
    return Network(env, topo)


def flood(env, network, index):
    src = network.host("left{}".format(index + 1))
    dst = "right{}".format(index + 1)
    network.host(dst)

    def pump(env):
        while env.now < DURATION:
            src.send(dst, size=FLOOD_PACKET)
            # Offered load per flooder ≈ bottleneck / 2: heavy overload.
            yield env.timeout(FLOOD_PACKET * 8 / (BOTTLENECK / 2))

    env.process(pump(env))


def run_best_effort():
    env = Environment()
    network = build(env)
    binding = StreamBinding(network, "left0", "right0")
    sink = MediaSink(env, "viewer", target_delay=0.15)
    binding.attach_sink(sink)
    source = MediaSource(env, "camera", binding.send_frame, rate=RATE,
                         frame_size=FRAME)
    for i in range(FLOODERS):
        flood(env, network, i)
    source.start(duration=DURATION)
    env.run(until=DURATION + 2.0)
    return {"sink": sink, "admitted": "n/a", "renegotiations": 0}


def run_reserved(renegotiate=False):
    env = Environment()
    network = build(env)
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
    for i in range(FLOODERS):
        flood(env, network, i)
    source.start(duration=DURATION)
    if renegotiate:
        def downgrade(env):
            yield env.timeout(DURATION / 2)
            # The application accepts half the bandwidth mid-stream and
            # adapts by halving frame size (coarser quantisation).
            broker.renegotiate(contract,
                               contract.agreed.throughput * 0.5)
            source.frame_size = FRAME // 2
        env.process(downgrade(env))
    env.run(until=DURATION + 2.0)
    return {"sink": sink, "admitted": contract.agreed.throughput,
            "renegotiations": contract.renegotiations}


def run_experiment():
    return {
        "best effort (no QoS)": run_best_effort(),
        "QoS reserved": run_reserved(),
        "QoS + renegotiation": run_reserved(renegotiate=True),
    }


def test_e7_qos(benchmark):
    results = run_once(benchmark, run_experiment)
    rows = []
    for name, stats in results.items():
        sink = stats["sink"]
        rows.append((name, sink.counters["received"],
                     sink.counters["played"], sink.deadline_misses,
                     sink.miss_rate, stats["renegotiations"]))
    print_table(
        "E7  video integrity across a flooded bottleneck",
        ["regime", "frames arrived", "played on time", "missed",
         "miss rate", "renegotiations"],
        rows)
    best_effort = results["best effort (no QoS)"]["sink"]
    reserved = results["QoS reserved"]["sink"]
    renegotiated = results["QoS + renegotiation"]
    # The paper's shape: without QoS the stream's integrity is destroyed;
    # with admission + enforcement it survives intact.
    assert best_effort.miss_rate > 0.3
    assert reserved.miss_rate < 0.02
    assert reserved.counters["played"] > \
        best_effort.counters["played"] * 1.5
    assert renegotiated["renegotiations"] == 1
    assert renegotiated["sink"].miss_rate < 0.02
    benchmark.extra_info["best_effort_miss"] = best_effort.miss_rate
    benchmark.extra_info["reserved_miss"] = reserved.miss_rate
