"""The paper's §2.3 illustrative example: electronic flight strips.

An electronic flight-progress board for two controller positions.  The
ethnographically-derived requirements are built in:

* **manual strip placement** — new strips are NOT auto-positioned; a
  controller places each one, which draws attention to the arrival
  (the paper's example of a conventional automation assumption that is
  invalid in cooperative settings);
* **at-a-glance monitoring** — the board is a public workspace: every
  placement and amendment flows to all positions as awareness events;
* **mutual assistance** — a position watching its colleague's sector
  load can take over strips when the colleague is overloaded;
* **accountability** — the board keeps a public history of who did what.

Run:  python examples/atc_flightstrips.py
"""

from repro import CooperativePlatform
from repro.awareness import ACTION_EDIT


class FlightStrip:
    """One strip of card: flight data plus controller instructions."""

    def __init__(self, callsign: str, level: int, beacon_eta: float):
        self.callsign = callsign
        self.level = level
        self.beacon_eta = beacon_eta
        self.instructions = []

    def __repr__(self):
        return "{} FL{} eta={:.0f}".format(
            self.callsign, self.level, self.beacon_eta)


class ProgressBoard:
    """The public rack of strips for one sector, held in the session
    store so every change is visible at a glance to all positions.
    ``positions`` maps each controller to the host they work at: a
    change is published from there."""

    def __init__(self, session, sector: str, positions: dict):
        self.session = session
        self.sector = sector
        self.positions = positions
        self.racks = {}       # position -> ordered list of callsigns
        self.history = []     # (time, controller, action, callsign)

    def place_strip(self, controller: str, position: str,
                    strip: FlightStrip, slot: int) -> None:
        """Manual placement: the controller chooses the slot."""
        rack = self.racks.setdefault(position, [])
        rack.insert(min(slot, len(rack)), strip.callsign)
        self._record(controller, "place", strip)

    def amend(self, controller: str, strip: FlightStrip,
              instruction: str) -> None:
        strip.instructions.append(instruction)
        self._record(controller, "amend:" + instruction, strip)

    def take_over(self, controller: str, from_position: str,
                  to_position: str, callsign: str) -> None:
        """A colleague relieves an overloaded position of one strip."""
        self.racks[from_position].remove(callsign)
        self.racks.setdefault(to_position, []).append(callsign)
        self.history.append((self.session.platform.env.now, controller,
                             "take-over", callsign))
        self.session.session.store.write(
            "board/" + callsign, to_position,
            writer=self.positions[controller],
            at=self.session.platform.env.now)

    def load_of(self, position: str) -> int:
        return len(self.racks.get(position, []))

    def _record(self, controller: str, action: str,
                strip: FlightStrip) -> None:
        now = self.session.platform.env.now
        self.history.append((now, controller, action, strip.callsign))
        self.session.session.store.write(
            "board/" + strip.callsign,
            {"level": strip.level, "instructions": list(
                strip.instructions)},
            writer=self.positions[controller], at=now)


def main() -> None:
    platform = CooperativePlatform(sites=1, hosts_per_site=3,
                                   topology="lan", seed=11)
    positions = dict(zip(("north", "south", "chief"),
                         platform.host_names()))
    controller_at = {host: name for name, host in positions.items()}
    session = platform.create_session(
        "sector-5", list(positions.values()), floor=None)
    board = ProgressBoard(session, "sector-5", positions)

    # The chief monitors the whole board at a glance.
    glances = []
    session.workspace.watch(
        positions["chief"], lambda event: glances.append(
            (round(platform.env.now, 3), controller_at[event.actor],
             event.artefact)))

    def north_position(env):
        strips = [FlightStrip("BA{}".format(100 + i), 340 - 10 * i,
                              60.0 * i) for i in range(4)]
        for i, strip in enumerate(strips):
            yield env.timeout(2.0)
            # Manual placement: deliberately NOT sorted automatically.
            board.place_strip("north", "north-rack", strip, slot=i)
        yield env.timeout(1.0)
        board.amend("north", strips[0], "descend FL200")

    def south_position(env):
        yield env.timeout(12.0)
        # South notices north's rack is loaded and assists.
        if board.load_of("north-rack") >= 4:
            board.take_over("south", "north-rack", "south-rack", "BA103")

    platform.env.process(north_position(platform.env))
    platform.env.process(south_position(platform.env))
    platform.run()

    print("north rack:", board.racks.get("north-rack"))
    print("south rack:", board.racks.get("south-rack"))
    print("\npublic history (accountability):")
    for at, controller, action, callsign in board.history:
        print("  t={:>5.1f}  {:<6} {:<22} {}".format(
            at, controller, action, callsign))
    print("\nchief's at-a-glance awareness feed "
          "({} events):".format(len(glances)))
    for at, actor, artefact in glances[:5]:
        print("  t={:>5.1f}  {} touched {}".format(at, actor, artefact))
    assert board.load_of("north-rack") == 3
    assert board.load_of("south-rack") == 1
    print("\nmutual assistance worked: south relieved north of BA103")


if __name__ == "__main__":
    main()
