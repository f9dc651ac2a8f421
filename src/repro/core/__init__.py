"""The paper's contribution, operationalised: the cooperative platform."""

from repro.core.platform import (
    CooperativePlatform,
    CooperativeSession,
    MediaFlow,
    SharedDocument,
)

__all__ = [
    "CooperativePlatform",
    "CooperativeSession",
    "MediaFlow",
    "SharedDocument",
]
