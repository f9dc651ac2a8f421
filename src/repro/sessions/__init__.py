"""Session management, floor control and application sharing (§3.2.2)."""

from repro.sessions.floor import (
    ChairedFloor,
    FcfsFloor,
    FLOOR_POLICIES,
    FloorPolicy,
    FreeFloor,
    NegotiatedFloor,
    RoundRobinFloor,
)
from repro.sessions.session import (
    ASYNCHRONOUS,
    CO_LOCATED,
    REMOTE,
    SYNCHRONOUS,
    Session,
)
from repro.sessions.telepointers import TelepointerService
from repro.sessions.sharing import (
    AwareSharedObject,
    SingleUserApp,
    TransparentConference,
    identical_view,
    summary_view,
)

__all__ = [
    "ASYNCHRONOUS",
    "AwareSharedObject",
    "CO_LOCATED",
    "ChairedFloor",
    "FLOOR_POLICIES",
    "FcfsFloor",
    "FloorPolicy",
    "FreeFloor",
    "NegotiatedFloor",
    "REMOTE",
    "RoundRobinFloor",
    "SYNCHRONOUS",
    "Session",
    "SingleUserApp",
    "TelepointerService",
    "TransparentConference",
    "identical_view",
    "summary_view",
]
