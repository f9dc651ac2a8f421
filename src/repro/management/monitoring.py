"""Usage monitoring: the mechanisms that inform placement policies.

The paper (§4.2.1 "Management"): *"management functions must be aware of
the pattern of use of objects emanating from groups.  In more general
terms, group aware policies are required.  This also assumes that
appropriate mechanisms are in place to support and inform such policies."*

:class:`UsageMonitor` is that mechanism: it records which node invoked
which object when, and summarises access patterns over a sliding window.
Samples are also routed through the observability
:class:`~repro.obs.metrics.MetricsRegistry`, so placement policies, the
benchmarks and the dashboard's ``object`` table (``python -m repro
dashboard``) all read one data source.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.errors import ReproError
from repro.sim import Environment


class UsageMonitor:
    """Records (object, caller node, time) access samples."""

    def __init__(self, env: Environment, window: float = 60.0) -> None:
        if not window > 0:  # also rejects NaN
            raise ReproError("window must be positive")
        self.env = env
        self.window = window
        # Samples arrive in non-decreasing sim time, so expiry is a
        # popleft loop instead of an O(n) list rebuild per query.
        self._samples: Deque[Tuple[float, str, str]] = deque()

    def record(self, oid: str, caller_node: str) -> None:
        """Note one invocation of ``oid`` from ``caller_node``."""
        self._samples.append((self.env.now, oid, caller_node))
        self.env.metrics.counter("usage.access", oid=oid,
                                 node=caller_node).add()

    def _recent(self) -> Deque[Tuple[float, str, str]]:
        horizon = self.env.now - self.window
        samples = self._samples
        while samples and samples[0][0] < horizon:
            samples.popleft()
        return samples

    def access_pattern(self, oid: str) -> Dict[str, int]:
        """Recent access counts for ``oid``, keyed by caller node."""
        pattern: Dict[str, int] = {}
        for _, sample_oid, node in self._recent():
            if sample_oid == oid:
                pattern[node] = pattern.get(node, 0) + 1
        return pattern

    def active_objects(self) -> List[str]:
        """Objects with any access in the window."""
        return sorted({oid for _, oid, _ in self._recent()})

    def total_accesses(self, oid: str) -> int:
        return sum(self.access_pattern(oid).values())

    def user_nodes(self, oid: str) -> List[str]:
        """The group of nodes currently using ``oid``."""
        return sorted(self.access_pattern(oid))
