"""Usage-driven cluster migration (§4.2.1 "Management").

Couples the :class:`~repro.management.monitoring.UsageMonitor` to the
placement policy: periodically, each active object's observed user group
is fed to the policy; when the recommended node beats the current node's
worst-member latency by more than ``improvement_threshold``, the object's
cluster is migrated there through the ODP runtime.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import PlacementError
from repro.management.monitoring import UsageMonitor
from repro.management.placement import (
    GroupAwarePlacement,
    PlacementPolicy,
    response_latencies,
)
from repro.node.runtime import ODPRuntime
from repro.obs.metrics import Counter


class MigrationManager:
    """Re-evaluates object placement on a fixed period."""

    def __init__(self, runtime: ODPRuntime, monitor: UsageMonitor,
                 policy: Optional[PlacementPolicy] = None,
                 candidates: Optional[List[str]] = None,
                 period: float = 30.0,
                 improvement_threshold: float = 0.25) -> None:
        if not period > 0:  # also rejects NaN
            raise PlacementError("period must be positive")
        if not 0 <= improvement_threshold < 1:
            raise PlacementError(
                "improvement_threshold must be in [0, 1)")
        self.runtime = runtime
        self.env = runtime.env
        self.monitor = monitor
        self.policy = policy or GroupAwarePlacement()
        self.candidates = candidates
        self.period = period
        self.improvement_threshold = improvement_threshold
        self.counters = Counter()
        self.migrations: List[Tuple[float, str, str, str]] = []
        self.running = True
        self.process = self.env.process(self._run())

    def stop(self) -> None:
        self.running = False

    def _candidate_nodes(self) -> List[str]:
        if self.candidates is not None:
            return list(self.candidates)
        return sorted(self.runtime.nuclei)

    def _run(self):
        while self.running:
            yield self.env.timeout(self.period)
            for oid in self.monitor.active_objects():
                yield from self._consider(oid)

    def _consider(self, oid: str):
        current = self.runtime.locate(oid)
        if current is None:
            return
        users = self.monitor.user_nodes(oid)
        if not users:
            return
        topology = self.runtime.network.topology
        weights = self.monitor.access_pattern(oid)
        recommended = self.policy.place(
            self._candidate_nodes(), users, topology, weights)
        self.counters.incr("evaluations")
        if recommended == current:
            return
        current_worst = max(response_latencies(
            current, users, topology).values())
        new_worst = max(response_latencies(
            recommended, users, topology).values())
        if current_worst <= 0:
            return
        improvement = (current_worst - new_worst) / current_worst
        if improvement < self.improvement_threshold:
            return
        nucleus = self.runtime.nuclei.get(current)
        if nucleus is None:
            return
        obj = nucleus.find_object(oid)
        if obj is None or obj.cluster is None:
            return
        try:
            yield nucleus.migrate_cluster(obj.cluster, recommended)
        except PlacementError:
            self.counters.incr("failed_migrations")
            return
        self.counters.incr("migrations")
        self.migrations.append((self.env.now, oid, current, recommended))
