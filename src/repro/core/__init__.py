"""The paper's contribution, operationalised: matrix and platform."""

from repro.core.matrix import (
    EXAMPLE_APPLICATIONS,
    QUADRANTS,
    classify,
    quadrant_name,
    render_matrix,
    transition_path,
)
from repro.core.platform import (
    CooperativePlatform,
    CooperativeSession,
    MediaFlow,
    SharedDocument,
)

__all__ = [
    "CooperativePlatform",
    "CooperativeSession",
    "EXAMPLE_APPLICATIONS",
    "MediaFlow",
    "QUADRANTS",
    "SharedDocument",
    "classify",
    "quadrant_name",
    "render_matrix",
    "transition_path",
]
