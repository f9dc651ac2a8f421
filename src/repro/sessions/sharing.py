"""Collaboration-transparent and collaboration-aware sharing (§3.2.2).

Two ways of putting an application in front of a group:

* **Collaboration-transparent** (:class:`TransparentConference`, after
  Rapport/SharedX/MMConf): the application is single-user and unaware of
  the group.  Input from members is *multidropped* into one stream —
  arbitration by a floor policy at the app's host, each input a message
  there — and display output is *multicast*, a datagram to each
  member's screen.  The application cannot present
  itself differently to different users, and the conference pays the
  multicast display bandwidth.
* **Collaboration-aware** (:class:`AwareSharedObject`): the object knows
  its users; each member has a tailorable *view policy* deciding how state
  changes are presented to them, and concurrent access is managed
  explicitly (here: any member may operate; a state delta goes to each
  member's host, named like the member, and is presented there).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import FloorControlError, SessionError
from repro.net import Network
from repro.obs.metrics import Counter
from repro.sessions.floor import FloorPolicy, arrive, refuse, send_call
from repro.sim import Event

#: The port screens and state deltas travel on.
SHARING_PORT = 60
#: Payload bytes of one aware state delta: a key and its new value.
DELTA_SIZE = 200
#: Payload bytes of one member's input to a transparent app: an event
#: such as a keystroke or a stroke with its coordinates.
INPUT_SIZE = 64


class SingleUserApp:
    """A collaboration-unaware application: one input, one display.

    ``handle(input) -> display`` is the whole interface: an append-only
    editor, sufficient for the sharing experiments.
    """

    def __init__(self) -> None:
        self.state: List[Any] = []

    def handle(self, event: Any) -> str:
        """Process one input event, returning the new display output."""
        self.state.append(event)
        return "display:{} items".format(len(self.state))


class TransparentConference:
    """A single-user app at its floor's host, its display multicast to
    members."""

    def __init__(self, network: Network, app: SingleUserApp,
                 floor: FloorPolicy, display_size: int = 2048) -> None:
        if display_size < 0:
            raise SessionError("display size must be non-negative")
        self.env = network.env
        self.network = network
        self.host = floor.host
        self.app = app
        self.floor = floor
        self.display_size = display_size
        #: member -> list of (time, display output) updates received.
        self.screens: Dict[str, List[Tuple[float, Any]]] = {}

    def join(self, member: str) -> None:
        if member in self.screens:
            raise SessionError("{} already joined".format(member))
        self.network.host(member).on_packet(SHARING_PORT, arrive)
        self.screens[member] = []

    def submit(self, member: str, event: Any) -> Event:
        """A member's input: the floor granted, the input sent to the
        app's host and applied there, the display multicast.  Fires with
        the output when the member's own screen is painted, or fails
        with the error of a floor message or input not delivered, or
        with :class:`FloorControlError` when its turn had ended by the
        time the input arrived."""
        if member not in self.screens:
            raise SessionError("{} is not in the conference".format(member))
        done = self.env.event()
        self.floor.request(member).callbacks.append(
            lambda grant: self._turn(member, event, done, grant))
        return done

    def _turn(self, member: str, event: Any, done: Event,
              grant: Event) -> None:
        if not grant.ok:
            grant.defused = True
            done.reject(grant.value)
            return
        # The release follows the input on the member's channel, so the
        # app applies the input before the floor is handed on.
        send_call(self.network, member, self.host.name,
                  (self._apply, member, grant.value, event, done),
                  INPUT_SIZE, failed=refuse(done))
        self.floor.release(member)

    def _apply(self, member: str, turn: int, event: Any,
               done: Event) -> None:
        if not self.floor.current(member, turn):
            # The floor's host ended the turn first (its grant's acks
            # were lost, or it reclaimed the floor): the input is
            # dropped, and the member told.
            error = FloorControlError(
                "{}'s turn {} ended before its input arrived".format(
                    member, turn))
            send_call(self.network, self.host.name, member,
                      (refuse(done), error), failed=refuse(done))
            return
        output = self.app.handle(event)
        # Multicast the new display: a datagram to each member's host.
        for viewer in self.screens:
            self.host.send(viewer, (self._paint, viewer, output, member, done),
                           self.display_size, SHARING_PORT)

    def _paint(self, viewer: str, output: Any, member: str,
               done: Event) -> None:
        self.screens[viewer].append((self.env.now, output))
        if viewer == member and not done.triggered:
            done.succeed(output)


ViewPolicy = Callable[[str, str, Any], Any]


def identical_view(member: str, key: str, value: Any) -> Any:
    """WYSIWIS: everyone sees the same thing (the transparent default)."""
    return value


def summary_view(member: str, key: str, value: Any) -> Any:
    """A reduced-detail presentation (e.g. for a peripheral participant)."""
    text = str(value)
    return text[:20] + "..." if len(text) > 20 else text


class AwareSharedObject:
    """A collaboration-aware shared object with per-member view policies.

    The paper's criticism of transparent sharing is that *"applications
    tend to encapsulate the decisions as to how information is presented
    and modified.  This lack of visibility inhibits tailoring."*  Here the
    presentation policy is explicit, per member, and replaceable at any
    time.
    """

    def __init__(self, network: Network, name: str = "object") -> None:
        self.env = network.env
        self.network = network
        self.name = name
        self.state: Dict[str, Any] = {}
        self._views: Dict[str, ViewPolicy] = {}
        #: member -> list of (time, key, presented value).
        self.presented: Dict[str, List[Tuple[float, str, Any]]] = {}
        self.counters = Counter()

    def join(self, member: str,
             view: Optional[ViewPolicy] = None) -> None:
        if member in self._views:
            raise SessionError("{} already joined".format(member))
        self.network.host(member).on_packet(SHARING_PORT, arrive)
        self._views[member] = view or identical_view
        self.presented[member] = []

    def update(self, member: str, key: str, value: Any) -> None:
        """Any member may operate; all members see it through their view."""
        if member not in self._views:
            raise SessionError("{} has not joined".format(member))
        self.state[key] = value
        self.counters.incr("updates")
        self._present(member, key, value)
        author = self.network.host(member)
        for viewer in self._views:
            if viewer != member:
                author.send(viewer, (self._present, viewer, key, value),
                            DELTA_SIZE, SHARING_PORT)

    def _present(self, viewer: str, key: str, value: Any) -> None:
        self.presented[viewer].append(
            (self.env.now, key, self._views[viewer](viewer, key, value)))
