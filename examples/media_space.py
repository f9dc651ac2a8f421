"""A day in a media space: glances, cruises and a video wall.

Recreates §3.3.2's canon: the Xerox PARC coffee-room video wall, a
Cruiser-style cruise down the virtual hallway, and RAVE-style
accessibility controls with reciprocity, which carry the social
protocol for interruption.

Run:  python examples/media_space.py
"""

from repro.net import Network, lan
from repro.sim import Environment
from repro.spaces import BUSY, MediaSpace


def main() -> None:
    env = Environment()
    topo = lan(env, hosts=4)
    network = Network(env, topo)

    # -- the media space --------------------------------------------------
    space = MediaSpace(network, glance_duration=6.0)
    space.add_node("coffee-lancaster", host="host0")
    space.add_node("coffee-portland", host="host1")
    space.add_node("gordon-office", host="host2")
    space.add_node("tom-office", host="host3")

    # Reciprocity: gordon always learns who looked at him.
    looks = []
    space.awareness.subscribe(
        "gordon-office",
        lambda event: looks.append((env.now, event.actor, event.action)),
        event_filter=lambda name, event:
        event.artefact == "gordon-office" and event.actor != name,
        host="host2")

    # The Portland experiment: a standing wall between coffee rooms.
    wall = space.video_wall("coffee-lancaster", "coffee-portland")
    print("video wall raised between the coffee rooms "
          "({} media flows)".format(len(wall.flows)))

    def working_day(env):
        # Tom glances at gordon (accessible): granted, 6 seconds.
        connection = yield space.glance("tom-office", "gordon-office")
        print("t={:>5.1f}  tom glanced at gordon: {}".format(
            env.now, "granted" if connection else "refused"))

        # Gordon gets his head down.
        space.set_accessibility("gordon-office", BUSY)
        connection = yield space.glance("tom-office", "gordon-office")
        print("t={:>5.1f}  tom glanced again: {}".format(
            env.now, "granted" if connection else "refused (busy)"))

        # A cruise down the hallway from the coffee room.
        connections = yield space.cruise(
            "coffee-lancaster", ["gordon-office", "tom-office"])
        print("t={:>5.1f}  cruise completed: {} office(s) seen".format(
            env.now, len(connections)))

        # Long-lived pairing between the co-authors' offices.
        space.set_accessibility("gordon-office", "accessible")
        share = space.office_share("gordon-office", "tom-office")
        yield env.timeout(10.0)
        space.hang_up(share)
        print("t={:>5.1f}  office share ended after 10s".format(env.now))

    done = env.process(working_day(env))
    env.run(done)
    space.hang_up(wall)
    env.run(until=env.now + 1.0)

    delivered = sum(sink.counters["played"]
                    for _, _, sink in wall.flows)
    print("\nvideo wall carried {} frames while up".format(delivered))
    print("gordon's reciprocity feed (who looked, when):")
    for at, actor, action in looks:
        print("  t={:>5.1f}  {} -> {}".format(at, actor, action))


if __name__ == "__main__":
    main()
