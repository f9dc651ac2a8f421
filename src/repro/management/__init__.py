"""Group-aware management: monitoring, placement and migration (§4.2.1)."""

from repro.management.migration import MigrationManager
from repro.management.monitoring import UsageMonitor
from repro.management.placement import (
    FirstNodePlacement,
    GroupAwarePlacement,
    LoadBalancedPlacement,
    PLACEMENT_POLICIES,
    PlacementPolicy,
    RandomPlacement,
    response_latencies,
)

__all__ = [
    "FirstNodePlacement",
    "GroupAwarePlacement",
    "LoadBalancedPlacement",
    "MigrationManager",
    "PLACEMENT_POLICIES",
    "PlacementPolicy",
    "RandomPlacement",
    "UsageMonitor",
    "response_latencies",
]
