"""Multi-user hypertext and co-authoring (§3.2.3)."""

from repro.hypertext.network import (
    HyperLink,
    HyperNode,
    HypertextNetwork,
    LINK_TYPES,
)
from repro.hypertext.quilt import (
    AUTHOR,
    CO_AUTHOR,
    COMMENT,
    COMMENTER,
    INCORPORATED,
    OPEN,
    QuiltDocument,
    REJECTED,
    ROLES,
    SUGGESTION,
)

__all__ = [
    "AUTHOR",
    "CO_AUTHOR",
    "COMMENT",
    "COMMENTER",
    "HyperLink",
    "HyperNode",
    "HypertextNetwork",
    "INCORPORATED",
    "LINK_TYPES",
    "OPEN",
    "QuiltDocument",
    "REJECTED",
    "ROLES",
    "SUGGESTION",
]
