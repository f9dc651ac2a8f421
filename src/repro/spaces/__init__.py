"""The use of space (§3.3.2): media spaces."""

from repro.spaces.mediaspace import (
    ACCESSIBLE,
    BUSY,
    Connection,
    DO_NOT_DISTURB,
    GLANCE,
    MediaSpace,
    OFFICE_SHARE,
    VIDEO_WALL,
    WorkplaceNode,
)

__all__ = [
    "ACCESSIBLE",
    "BUSY",
    "Connection",
    "DO_NOT_DISTURB",
    "GLANCE",
    "MediaSpace",
    "OFFICE_SHARE",
    "VIDEO_WALL",
    "WorkplaceNode",
]
