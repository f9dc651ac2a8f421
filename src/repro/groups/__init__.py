"""Group communication: ordering, membership, failure detection, group RPC.

This package supplies the group-interaction machinery the paper requires of
ODP (§4.2.2-iv): ordered group broadcast (unordered / FIFO / causal /
total), coordinator-managed membership views, heartbeat failure detection
and deadline-bounded group invocation.
"""

from repro.groups.clocks import VectorClock
from repro.groups.failure import (
    HEARTBEAT_PORT,
    FixedTimeout,
    HeartbeatMonitor,
    HeartbeatSender,
    MonitoredMembership,
)
from repro.groups.group import (
    GROUP_PORT,
    GroupEndpoint,
    GroupView,
    ProcessGroup,
)
from repro.groups.invocation import (
    GROUP_RPC_PORT,
    GroupCallResult,
    GroupInvoker,
    QUORUM_ALL,
    QUORUM_ANY,
    QUORUM_MAJORITY,
)
from repro.groups.messages import GroupMessage
from repro.groups.ordering import (
    CausalDelivery,
    FifoDelivery,
    ORDERINGS,
    TotalDelivery,
    UnorderedDelivery,
    make_ordering,
)

__all__ = [
    "CausalDelivery",
    "FifoDelivery",
    "GROUP_PORT",
    "GROUP_RPC_PORT",
    "GroupCallResult",
    "GroupEndpoint",
    "GroupInvoker",
    "GroupMessage",
    "GroupView",
    "HEARTBEAT_PORT",
    "FixedTimeout",
    "HeartbeatMonitor",
    "HeartbeatSender",
    "MonitoredMembership",
    "ORDERINGS",
    "ProcessGroup",
    "QUORUM_ALL",
    "QUORUM_ANY",
    "QUORUM_MAJORITY",
    "TotalDelivery",
    "UnorderedDelivery",
    "VectorClock",
    "make_ordering",
]
