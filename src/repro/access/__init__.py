"""Access control for collaborative environments (§4.2.1 "Security").

Baseline and alternative side by side:

* :mod:`~repro.access.matrix` — the classic access matrix with ACL and
  capability views, a single administrator and static (delayed)
  administration: the model the paper criticises.
* :mod:`~repro.access.roles` — dynamic roles with pattern-based,
  fine-grained rights and a visible specification.
* :mod:`~repro.access.shen_dewan` — Shen & Dewan's double-inheritance
  model with negative rights.
* :mod:`~repro.access.negotiation` — rights changes agreed by negotiation
  between the parties involved.
"""

from repro.access.matrix import (
    AccessMatrix,
    GRANT,
    READ,
    RIGHTS,
    WRITE,
)
from repro.access.negotiation import (
    AccessNegotiator,
    DENIED,
    EXPIRED,
    GRANTED,
    NegotiationRequest,
)
from repro.access.roles import (
    ANNOTATE,
    Role,
    RoleBasedPolicy,
    pattern_matches,
)
from repro.access.shen_dewan import Hierarchy, ShenDewanPolicy

__all__ = [
    "ANNOTATE",
    "AccessMatrix",
    "AccessNegotiator",
    "DENIED",
    "EXPIRED",
    "GRANT",
    "GRANTED",
    "Hierarchy",
    "NegotiationRequest",
    "READ",
    "RIGHTS",
    "Role",
    "RoleBasedPolicy",
    "ShenDewanPolicy",
    "WRITE",
    "pattern_matches",
]
