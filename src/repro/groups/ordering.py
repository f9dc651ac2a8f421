"""Delivery-ordering protocols: unordered, FIFO, causal and total.

Each protocol is a pure hold-back buffer: ``on_receive(message)`` returns
the (possibly empty) list of messages that become deliverable, in delivery
order; ``stamp(message)`` numbers the member's own next broadcast (under
total order the sequencer does).  Network-free logic keeps the invariants
directly testable (property-based tests over arbitrary arrival orders too).

The paper's requirement (§4.2.2-iv and §3.1) is that group infrastructures
let applications pick the ordering/latency trade-off; experiment E11
measures that trade-off using these buffers over the simulated network.
"""

from __future__ import annotations

from typing import Dict, List

from repro.groups.clocks import VectorClock
from repro.groups.messages import GroupMessage


class UnorderedDelivery:
    """No constraints: every message is deliverable on arrival."""

    name = "unordered"

    def stamp(self, message: GroupMessage) -> None:
        pass

    def on_receive(self, message: GroupMessage) -> List[GroupMessage]:
        return [message]


class FifoDelivery:
    """Per-sender FIFO: deliver each sender's messages in send order.

    Requires ``message.seq`` to be the sender's 1-based send counter.
    """

    name = "fifo"

    def __init__(self) -> None:
        self._next: Dict[str, int] = {}
        self._held: Dict[str, Dict[int, GroupMessage]] = {}

    def stamp(self, message: GroupMessage) -> None:
        # Own messages loop back via on_receive: next expected is next sent.
        message.seq = self._next.get(message.sender, 1)

    def on_receive(self, message: GroupMessage) -> List[GroupMessage]:
        if message.seq is None:
            raise ValueError("FIFO delivery requires per-sender seq")
        sender = message.sender
        expected = self._next.setdefault(sender, 1)
        held = self._held.setdefault(sender, {})
        if message.seq < expected:
            return []  # duplicate
        held[message.seq] = message
        deliverable: List[GroupMessage] = []
        while expected in held:
            deliverable.append(held.pop(expected))
            expected += 1
        self._next[sender] = expected
        return deliverable


class CausalDelivery:
    """Causal order via vector clocks (Birman-Schiper-Stephenson style).

    A message m from sender s with vector V is deliverable when the local
    delivered-vector D satisfies: D[s] == V[s] - 1 and D[p] >= V[p] for all
    p != s.  This also implies per-sender FIFO.

    One vector per member: its own broadcasts loop back through
    :meth:`on_receive`, so D is its send vector too.  :meth:`stamp` hands
    out a *copy*, own entry advanced, and leaves D to that loopback (were
    D advanced already the loopback would be a duplicate; were it shared
    the stamp would grow with every later delivery).
    """

    name = "causal"

    def __init__(self, local: str) -> None:
        self.local = local
        self._counts: Dict[str, int] = {}  # D
        self._held: List[GroupMessage] = []

    @property
    def delivered(self) -> VectorClock:
        """A snapshot of the delivered-vector D."""
        return VectorClock(self._counts)

    def stamp(self, message: GroupMessage) -> None:
        vector = message.vector = dict(self._counts)
        vector[message.sender] = vector.get(message.sender, 0) + 1

    def on_receive(self, message: GroupMessage) -> List[GroupMessage]:
        vector = message.vector
        if vector is None:
            raise ValueError("causal delivery requires vector timestamps")
        counts = self._counts
        sender = message.sender
        if vector.get(sender, 0) <= counts.get(sender, 0):
            return []  # duplicate, or sent before this member's join cut
        if not self._held and self._ready(message):
            counts[sender] = vector[sender]  # nothing waits on it: no rescan
            return [message]
        self._held.append(message)
        deliverable: List[GroupMessage] = []
        progressed = True
        while progressed:
            progressed = False
            for held in list(self._held):
                if self._ready(held):
                    self._held.remove(held)
                    counts[held.sender] = held.vector[held.sender]
                    deliverable.append(held)
                    progressed = True
        return deliverable

    def _ready(self, message: GroupMessage) -> bool:
        counts = self._counts
        sender = message.sender
        if message.vector.get(sender, 0) != counts.get(sender, 0) + 1:
            return False
        for process, time in message.vector.items():
            if time > counts.get(process, 0) and process != sender:
                return False
        return True

    @property
    def held_count(self) -> int:
        """Messages currently blocked awaiting their causal predecessors."""
        return len(self._held)


class TotalDelivery:
    """Total order: deliver strictly by the sequencer-assigned global_seq."""

    name = "total"

    def __init__(self) -> None:
        self._next = 1
        self._held: Dict[int, GroupMessage] = {}

    def on_receive(self, message: GroupMessage) -> List[GroupMessage]:
        if message.global_seq is None:
            raise ValueError("total delivery requires global_seq")
        if message.global_seq < self._next:
            return []  # duplicate
        self._held[message.global_seq] = message
        deliverable: List[GroupMessage] = []
        while self._next in self._held:
            deliverable.append(self._held.pop(self._next))
            self._next += 1
        return deliverable


ORDERINGS = {
    "unordered": UnorderedDelivery,
    "fifo": FifoDelivery,
    "causal": CausalDelivery,
    "total": TotalDelivery,
}


def make_ordering(name: str, local: str):
    """Instantiate the ordering protocol called ``name`` for one member."""
    if name not in ORDERINGS:
        raise ValueError("unknown ordering: {}".format(name))
    if name == "causal":
        return CausalDelivery(local)
    return ORDERINGS[name]()
