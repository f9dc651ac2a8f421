"""Groupware concurrency control: every mechanism §4.2.1 surveys.

* :mod:`~repro.concurrency.store` — the shared information space.
* :mod:`~repro.concurrency.transactions` — the serialisable baseline
  (Figure 2a's "walls").
* :mod:`~repro.concurrency.locks` — hard, tickle, soft and notification
  lock styles over one lock table.
* :mod:`~repro.concurrency.txgroups` — Skarra & Zdonik transaction groups
  with tailorable access rules.
* :mod:`~repro.concurrency.ot` — GROVE-style operation transformation
  (immediate response, convergent replicas).
* :mod:`~repro.concurrency.reservation` — floor-passing reservation.
* :mod:`~repro.concurrency.granularity` — the section/paragraph/sentence/
  word lock-granularity trade-off.
"""

from repro.concurrency.granularity import GRANULARITIES, StructuredDocument
from repro.concurrency.locks import (
    EXCLUSIVE,
    HARD,
    LockGrant,
    LockTable,
    NOTIFICATION,
    SHARED,
    SOFT,
    STYLES,
    TICKLE,
)
from repro.concurrency.ot import (
    Delete,
    Insert,
    Noop,
    OTClientCore,
    OTClientSite,
    OTServerCore,
    OTServerSite,
    OT_PORT,
    apply_op,
    apply_ops,
    xform,
)
from repro.concurrency.reservation import ReservationControl
from repro.concurrency.store import DataItem, SharedStore
from repro.concurrency.transactions import (
    ABORTED,
    ACTIVE,
    COMMITTED,
    Transaction,
    TransactionManager,
)
from repro.concurrency.txgroups import (
    AccessRule,
    READ,
    TransactionGroup,
    WRITE,
    cooperative_rule,
    free_rule,
    serialisable_rule,
)

__all__ = [
    "ABORTED",
    "ACTIVE",
    "AccessRule",
    "COMMITTED",
    "DataItem",
    "Delete",
    "EXCLUSIVE",
    "GRANULARITIES",
    "HARD",
    "Insert",
    "LockGrant",
    "LockTable",
    "NOTIFICATION",
    "Noop",
    "OTClientCore",
    "OTClientSite",
    "OTServerCore",
    "OTServerSite",
    "OT_PORT",
    "READ",
    "ReservationControl",
    "SHARED",
    "SOFT",
    "STYLES",
    "SharedStore",
    "StructuredDocument",
    "TICKLE",
    "Transaction",
    "TransactionGroup",
    "TransactionManager",
    "WRITE",
    "apply_op",
    "apply_ops",
    "cooperative_rule",
    "free_rule",
    "serialisable_rule",
    "xform",
]
