"""Logical clocks: vector clocks.

Vector clocks carry the causal history that the causal-ordering protocol
(§3.1 requirement: cooperative interactions must respect the order users
perceive) uses to hold back messages until their causes have arrived.
"""

from __future__ import annotations

from typing import Dict, Optional


class VectorClock:
    """A vector clock over named processes.

    Immutable-style API: operations return new instances, so snapshots can
    be attached to messages without defensive copying.
    """

    __slots__ = ("_clock",)

    def __init__(self, clock: Optional[Dict[str, int]] = None) -> None:
        self._clock: Dict[str, int] = dict(clock or {})

    def get(self, process: str) -> int:
        """The component for ``process`` (0 if never seen)."""
        return self._clock.get(process, 0)

    def increment(self, process: str) -> "VectorClock":
        """A new clock with ``process``'s component advanced by one."""
        clock = dict(self._clock)
        clock[process] = clock.get(process, 0) + 1
        return VectorClock(clock)

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Component-wise maximum of the two clocks."""
        clock = dict(self._clock)
        for process, time in other._clock.items():
            if time > clock.get(process, 0):
                clock[process] = time
        return VectorClock(clock)

    def dominates(self, other: "VectorClock") -> bool:
        """True if self >= other component-wise."""
        mine = self._clock
        return all(mine.get(p, 0) >= t for p, t in other._clock.items())

    def happened_before(self, other: "VectorClock") -> bool:
        """Strict causal precedence: self < other."""
        return other.dominates(self) and self != other

    def concurrent_with(self, other: "VectorClock") -> bool:
        """Neither clock precedes the other."""
        return not self.dominates(other) and not other.dominates(self)

    def as_dict(self) -> Dict[str, int]:
        """A snapshot of the components."""
        return dict(self._clock)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self.dominates(other) and other.dominates(self)

    def __hash__(self) -> int:
        return hash(frozenset(
            (p, t) for p, t in self._clock.items() if t > 0))

    def __repr__(self) -> str:
        inner = ", ".join("{}:{}".format(p, t)
                          for p, t in sorted(self._clock.items()))
        return "VC({})".format(inner)
