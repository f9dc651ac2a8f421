"""Awareness mechanisms: the paper's counterpart to transparency (§4.2.1).

*"in CSCW, awareness is often as important as transparency"* — this package
provides the machinery: an event bus fed by shared-workspace activity
(Figure 2b), the Benford & Fahlén spatial model (aura/focus/nimbus), and
Portholes-style asynchronous digests.
"""

from repro.awareness.digests import Digest, DigestService
from repro.awareness.events import (
    ACTION_EDIT,
    ACTION_JOIN,
    ACTION_LEAVE,
    ACTION_SUSPECTED,
    AwarenessBus,
    AwarenessEvent,
    WorkspaceAwareness,
    ignore_own_actions,
)
from repro.awareness.spatial import (
    Entity,
    FULL,
    NONE,
    PERIPHERAL,
    SharedSpace,
)

__all__ = [
    "ACTION_EDIT",
    "ACTION_JOIN",
    "ACTION_LEAVE",
    "ACTION_SUSPECTED",
    "AwarenessBus",
    "AwarenessEvent",
    "Digest",
    "DigestService",
    "Entity",
    "FULL",
    "NONE",
    "PERIPHERAL",
    "SharedSpace",
    "WorkspaceAwareness",
    "ignore_own_actions",
]
