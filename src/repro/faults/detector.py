"""Phi-accrual adaptive failure detection.

The fixed-timeout rule in :mod:`repro.groups.failure` answers "is this
member dead?" with a boolean derived from one constant.  Accrual
detectors (Hayashibara et al., "The phi accrual failure detector", SRDS
2004) instead output a *suspicion level* phi that grows continuously as
silence extends beyond what the observed heartbeat arrival distribution
predicts:

    phi(t) = -log10( P(next heartbeat takes longer than t) )

with the tail probability taken from a normal fit over a sliding window
of recent inter-arrival times.  phi = 1 means roughly a 10% chance the
member is actually alive, phi = 3 roughly 0.1%.  Because the window
adapts, a latency storm that stretches *every* arrival also stretches
the fitted distribution — the detector slows down instead of producing
a burst of false suspicions, exactly the §2.3 property that group
reliability should degrade gracefully rather than collapse.

:class:`PhiAccrualDetector` implements the
:class:`~repro.groups.failure.HeartbeatMonitor` strategy interface
(``watch`` / ``forget`` / ``observe`` / ``suspect``), so it drops into
:class:`~repro.groups.failure.MonitoredMembership` via the ``strategy``
argument.  Everything is driven by the simulation clock and plain
arithmetic — no randomness, so runs replay exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.obs.metrics import get_metrics

#: Floor on the fitted standard deviation, as a fraction of the mean
#: interval — keeps phi finite when arrivals are metronome-regular.
MIN_STD_FRACTION = 0.1


class _ArrivalWindow:
    """A bounded window of heartbeat inter-arrival intervals."""

    __slots__ = ("intervals", "max_samples", "last_arrival")

    def __init__(self, max_samples: int) -> None:
        self.intervals: List[float] = []
        self.max_samples = max_samples
        self.last_arrival: Optional[float] = None

    def add_arrival(self, now: float) -> None:
        if self.last_arrival is not None:
            self.intervals.append(now - self.last_arrival)
            if len(self.intervals) > self.max_samples:
                self.intervals.pop(0)
        self.last_arrival = now

    def mean(self) -> float:
        return sum(self.intervals) / len(self.intervals)

    def std(self) -> float:
        mean = self.mean()
        variance = sum((x - mean) ** 2 for x in self.intervals) \
            / len(self.intervals)
        return math.sqrt(variance)


class PhiAccrualDetector:
    """An accrual suspicion strategy for :class:`HeartbeatMonitor`.

    Parameters
    ----------
    threshold:
        Suspect when phi reaches this value (8.0 is the literature's
        conservative default; lower reacts faster, falsely suspects
        more).
    window:
        How many recent inter-arrival intervals feed the normal fit.
    min_samples:
        Before this many intervals arrive the detector *bootstraps*:
        silence is judged against ``bootstrap_interval`` with the same
        phi formula, so a member that never heartbeats at all (cold
        start) is still eventually suspected.
    bootstrap_interval:
        The assumed mean interval during bootstrap.
    """

    def __init__(self, threshold: float = 8.0, window: int = 100,
                 min_samples: int = 3,
                 bootstrap_interval: float = 1.0) -> None:
        if not threshold > 0:
            raise SimulationError(
                "threshold must be positive: {!r}".format(threshold))
        if window < 2:
            raise SimulationError("window must hold at least 2 samples")
        if min_samples < 2:
            raise SimulationError("min_samples must be >= 2")
        if not 0 < bootstrap_interval < math.inf:
            raise SimulationError(
                "bootstrap_interval must be a positive finite number: "
                "{!r}".format(bootstrap_interval))
        self.threshold = threshold
        self.window = window
        self.min_samples = min_samples
        self.bootstrap_interval = bootstrap_interval
        self._windows: Dict[str, _ArrivalWindow] = {}

    # -- strategy interface -------------------------------------------------

    def watch(self, member: str, now: float) -> None:
        """Start observing ``member`` (fresh window, watch time as the
        first pseudo-arrival so cold-start silence is measurable)."""
        window = _ArrivalWindow(self.window)
        window.last_arrival = now
        self._windows[member] = window

    def forget(self, member: str) -> None:
        self._windows.pop(member, None)

    def observe(self, member: str, now: float) -> None:
        window = self._windows.get(member)
        if window is None:
            window = _ArrivalWindow(self.window)
            self._windows[member] = window
        window.add_arrival(now)

    def suspect(self, member: str, silent_for: float, now: float) -> bool:
        phi = self.phi(member, now)
        if phi >= self.threshold:
            get_metrics().counter("detector.suspicions",
                                  member=member).add()
            return True
        return False

    # -- phi ----------------------------------------------------------------

    def phi(self, member: str, now: float) -> float:
        """The current suspicion level for ``member``."""
        window = self._windows.get(member)
        if window is None or window.last_arrival is None:
            return 0.0
        elapsed = now - window.last_arrival
        if elapsed <= 0:
            return 0.0
        if len(window.intervals) < self.min_samples:
            mean = self.bootstrap_interval
            std = mean * MIN_STD_FRACTION
        else:
            mean = window.mean()
            std = max(window.std(), mean * MIN_STD_FRACTION)
        return _phi(elapsed, mean, std)

    def intervals_observed(self, member: str) -> int:
        """How many inter-arrival samples back the fit for ``member``."""
        window = self._windows.get(member)
        return 0 if window is None else len(window.intervals)

    def __repr__(self) -> str:
        return "<PhiAccrualDetector threshold={:g} members={}>".format(
            self.threshold, len(self._windows))


def _phi(elapsed: float, mean: float, std: float) -> float:
    """phi = -log10 of the normal upper-tail probability of ``elapsed``.

    Uses ``erfc`` for a numerically stable far tail (the interesting
    regime: a member many standard deviations overdue).
    """
    z = (elapsed - mean) / (std * math.sqrt(2.0))
    tail = 0.5 * math.erfc(z)
    if tail <= 0.0:
        # Beyond double precision: the member is overwhelmingly overdue.
        return float("inf")
    return -math.log10(tail)
