"""Collaboration-transparent and collaboration-aware sharing (§3.2.2).

Two ways of putting an application in front of a group:

* **Collaboration-transparent** (:class:`TransparentConference`, after
  Rapport/SharedX/MMConf): the application is single-user and unaware of
  the group.  Input from members is *multidropped* into one stream —
  arbitration by a floor policy — and display output is *multicast* to
  every member's screen.  The application cannot present itself
  differently to different users, and the conference pays the multicast
  display bandwidth.
* **Collaboration-aware** (:class:`AwareSharedObject`): the object knows
  its users; each member has a tailorable *view policy* deciding how state
  changes are presented to them, and concurrent access is managed
  explicitly (here: any member may operate; per-member presentation).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SessionError
from repro.obs.metrics import Counter
from repro.sessions.floor import FloorPolicy
from repro.sim import Environment, Event


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


#: How long a display update takes to reach a member's screen, in seconds.
DISPLAY_LATENCY = 0.02


class TransparentConference:
    """A single-user app shared by multicasting display, multidropping input."""

    def __init__(self, env: Environment, app: SingleUserApp,
                 floor: FloorPolicy, display_size: int = 2048) -> None:
        if display_size < 0:
            raise SessionError("display size must be non-negative")
        self.env = env
        self.app = app
        self.floor = floor
        self.display_size = display_size
        self.members: List[str] = []
        self.counters = Counter()
        self.display_bytes_sent = 0
        #: member -> list of (time, display output) updates received.
        self.screens: Dict[str, List[Tuple[float, Any]]] = {}

    def join(self, member: str) -> None:
        if member in self.members:
            raise SessionError("{} already joined".format(member))
        self.members.append(member)
        self.screens[member] = []

    def submit(self, member: str, event: Any) -> Event:
        """A member's input: granted the floor, applied, display multicast.

        Fires with the display output once the member's own screen has
        been updated.
        """
        if member not in self.members:
            raise SessionError("{} is not in the conference".format(member))
        done = self.env.event()
        self.env.process(self._turn(member, event, done))
        return done

    def _turn(self, member: str, event: Any, done: Event):
        yield self.floor.request(member)
        output = self.app.handle(event)
        self.counters.incr("inputs")
        # Multicast the new display to every member's screen.
        for viewer in self.members:
            self.display_bytes_sent += self.display_size
            self.env.timeout(DISPLAY_LATENCY, (viewer, output)
                             ).callbacks.append(self._paint)
        self.floor.release(member)
        yield self.env.timeout(DISPLAY_LATENCY)
        done.succeed(output)

    def _paint(self, timer: Event) -> None:
        viewer, output = timer.value
        self.screens[viewer].append((self.env.now, output))
        self.counters.incr("display_updates")


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

    def __init__(self, env: Environment, name: str = "object") -> None:
        self.env = env
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
        self._views[member] = view or identical_view
        self.presented[member] = []

    def update(self, member: str, key: str, value: Any) -> None:
        """Any member may operate; all members see it through their view."""
        if member not in self._views:
            raise SessionError("{} has not joined".format(member))
        self.state[key] = value
        self.counters.incr("updates")
        for viewer, view in self._views.items():
            self.presented[viewer].append(
                (self.env.now, key, view(viewer, key, value)))
