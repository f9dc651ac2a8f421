"""Desktop conferencing: multimedia group interaction (§3.2.2, §4.2.2).

A three-site desktop conference with everything §4.2.2 demands:

* QoS-negotiated audio and video flows (admission control + monitoring);
* lip synchronisation between the two flows (continuous sync);
* a caption fired at a media time (event-driven sync);
* group-invoked camera start ("if a group of cameras are to be started
  simultaneously in a conference") with a real-time bound;
* floor-controlled shared application input.

Run:  python examples/desktop_conference.py
"""

from repro import CooperativePlatform
from repro.groups import GroupInvoker
from repro.qos import QoSParameters
from repro.sessions import FcfsFloor, SingleUserApp, TransparentConference
from repro.streams import (
    ARRIVAL,
    ContinuousSynchroniser,
    EventSynchroniser,
    MediaSink,
    MediaSource,
)


def main() -> None:
    platform = CooperativePlatform(sites=3, hosts_per_site=2, seed=23)
    env = platform.env
    hosts = platform.host_names()
    speaker, listener_b, listener_c = hosts[0], hosts[2], hosts[4]

    # -- group invocation: start every site's camera under a deadline ----
    invoker = GroupInvoker(platform.network, speaker)
    camera_nodes = [listener_b, listener_c]
    for node in camera_nodes:
        endpoint = invoker.serve(node)
        endpoint.register("start_camera",
                          lambda caller, args, n=node: (n, "rolling"))

    def start_cameras(env):
        result = yield invoker.call(camera_nodes, "start_camera",
                                    deadline=0.5)
        print("cameras started: {} replies, real-time bound met: {}"
              .format(result.replied, result.quorum_met))

    env.process(start_cameras(env))
    platform.run()

    # -- QoS-managed audio + video from the speaker to site B ------------
    video = platform.open_media_flow(
        speaker, listener_b, rate=25.0, frame_size=4000,
        desired=QoSParameters(throughput=1e6, latency=0.2, jitter=0.1,
                              loss=0.05))
    audio = platform.open_media_flow(
        speaker, listener_b, rate=50.0, frame_size=400,
        desired=QoSParameters(throughput=2e5, latency=0.2, jitter=0.1,
                              loss=0.05))
    print("video contract: {:.2g} b/s agreed".format(
        video.binding.contract.agreed.throughput))

    # -- lip sync between drifting local playout devices ------------------
    audio_play = MediaSink(env, "audio-play", mode=ARRIVAL)
    video_play = MediaSink(env, "video-play", mode=ARRIVAL)
    audio_device = MediaSource(env, "mic", audio_play.receive, rate=50.0)
    video_device = MediaSource(env, "cam", video_play.receive, rate=25.0,
                               clock_skew=1.03)  # 3% slow camera clock
    sync = ContinuousSynchroniser(env, audio_play, video_play)

    # -- event-driven sync: show a caption at media time 2.0s ------------
    cues = EventSynchroniser(video_play)
    cues.at(2.0, lambda: print(
        "t={:.2f}s: caption displayed at media time 2.0".format(env.now)))

    audio.start(duration=5.0)
    video.start(duration=5.0)
    audio_device.start(duration=5.0)
    video_device.start(duration=5.0)
    platform.run(until=env.now + 5.5)

    print("video frames delivered to {}: {} (deadline misses: {})"
          .format(listener_b, video.sink.counters["played"],
                  video.sink.deadline_misses))
    print("lip-sync corrections: {}; max skew {:.0f} ms (bound 80 ms)"
          .format(sync.counters["corrections"],
                  sync.max_abs_skew * 1000))
    sync.stop()  # the watcher would otherwise keep the simulation alive

    # -- floor-controlled shared whiteboard -------------------------------
    floor = FcfsFloor(platform.network, speaker)
    whiteboard = TransparentConference(platform.network, SingleUserApp(),
                                       floor)
    for member in (speaker, listener_b, listener_c):
        whiteboard.join(member)

    def participant(env, member, stroke):
        yield whiteboard.submit(member, stroke)

    for i, member in enumerate((speaker, listener_b, listener_c)):
        env.process(participant(env, member, "stroke-{}".format(i)))
    platform.run(until=env.now + 5.0)
    print("whiteboard strokes (one coherent stream): {}".format(
        whiteboard.app.state))
    print("every screen saw {} display updates".format(
        len(whiteboard.screens[speaker])))


if __name__ == "__main__":
    main()
