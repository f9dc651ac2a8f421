"""E8 — continuous synchronisation of media activities (§4.2.2-iii).

*"Data presentation devices must be tied together so that they consume
data in fixed ratios (e.g. in lip synchronisation)."*  An audio device
and a video device whose clock runs slow by the swept drift play for half
a minute; each frame crosses a network whose delay the seed draws.  The
pair is played with and without the continuous synchroniser (80 ms
lip-sync tolerance).  Event-driven synchronisation (a caption at a media
time) is tier-1's (``tests/streams/test_streams.py``).

Declared claim, per seed: at every drift the synchroniser's worst skew
is below the uncorrected one, the uncorrected skew grows with the drift,
and the factor by which the synchroniser cuts it grows with the drift.
"""

from benchmarks._util import check, print_sweep, sweep
from repro.sim import Environment, RandomStreams
from repro.streams import (
    ARRIVAL,
    ContinuousSynchroniser,
    MediaSink,
    MediaSource,
    measure_drift,
)

DURATION = 30.0
JITTER = 0.03          # a frame's network delay is uniform in [0, 30 ms]
DRIFTS = (0.01, 0.03, 0.05)


def play(seed, drift, corrected):
    env = Environment()
    rng = RandomStreams(seed).stream("network")

    def across_network(sink):
        def transmit(frame):
            env.timeout(rng.uniform(0, JITTER), frame).callbacks.append(
                lambda timer: sink.receive(timer.value))
        return transmit

    audio_sink = MediaSink(env, "audio", mode=ARRIVAL)
    video_sink = MediaSink(env, "video", mode=ARRIVAL)
    MediaSource(env, "audio", across_network(audio_sink),
                rate=50.0).start(duration=DURATION)
    MediaSource(env, "video", across_network(video_sink), rate=25.0,
                clock_skew=1 + drift).start(duration=DURATION)
    if not corrected:
        drift_samples = measure_drift(env, audio_sink, video_sink,
                                      duration=DURATION)
        env.run(until=DURATION + 1.0)
        return max(abs(skew) for skew in drift_samples.values), 0
    # The correction loop runs a few times per tolerance window.
    sync = ContinuousSynchroniser(env, audio_sink, video_sink,
                                  check_interval=0.04)
    env.run(until=DURATION)
    sync.stop()
    return sync.max_abs_skew, sync.counters["corrections"]


def run(seed, drift):
    uncorrected, _ = play(seed, drift, corrected=False)
    corrected, corrections = play(seed, drift, corrected=True)
    return {"uncorrected": uncorrected, "corrected": corrected,
            "cut": uncorrected / corrected, "corrections": corrections}


def claim_holds(rows):
    uncorrected = [row["uncorrected"] for row in rows]
    cuts = [row["cut"] for row in rows]
    return (all(row["corrected"] < row["uncorrected"] for row in rows)
            and uncorrected == sorted(uncorrected)
            and cuts == sorted(cuts))


def test_e8_sync():
    sweeps = sweep(run, DRIFTS)
    print_sweep(
        "E8  lip sync over {:g} s of drifting devices".format(DURATION),
        "video clock drift", ["{:.0%}".format(drift) for drift in DRIFTS],
        sweeps, {"max skew uncorrected (s)": "uncorrected",
                 "max skew corrected (s)": "corrected",
                 "cut (x)": "cut", "corrections": "corrections"})
    check(sweeps, claim_holds, "(the synchroniser cuts the skew, and cuts "
          "more as the drift grows)")
