"""The classical access-control baseline (§4.2.1 "Security").

*"Most existing approaches to access control in distributed systems are
based on the classic Access Matrix.  Specific mechanisms derived from this
matrix include access control lists and capabilities."*

This module provides that baseline with the properties the paper
criticises built in deliberately: identity-based subjects, a **single
administrator**, and **static administration** — changes queue behind an
administrative delay before taking effect.  Experiment E5 measures the
consequence (time-to-effect of a rights change) against the dynamic
role-based model.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import AccessDenied, AccessPolicyError
from repro.sim import Counter, Environment

READ = "read"
WRITE = "write"
GRANT = "grant"

RIGHTS = (READ, WRITE, GRANT)

_capability_ids = itertools.count(1000)  # repro: allow-RPR005 (ids are labels, not behaviour)


class AccessMatrix:
    """Subjects × objects → rights, mutated only by the administrator."""

    def __init__(self, env: Environment, administrator: str,
                 admin_delay: float = 0.0) -> None:
        if not admin_delay >= 0:
            raise AccessPolicyError(
                "admin_delay must be non-negative: {!r}".format(admin_delay))
        self.env = env
        self.administrator = administrator
        self.admin_delay = admin_delay
        self._entries: Dict[Tuple[str, str], Set[str]] = {}
        self.counters = Counter()
        #: (effective_at, subject, object, right, add) — audit trail.
        self.change_log: List[Tuple[float, str, str, str, bool]] = []

    def check(self, subject: str, obj: str, right: str) -> bool:
        """Does ``subject`` currently hold ``right`` on ``obj``?"""
        self.counters.incr("checks")
        return right in self._entries.get((subject, obj), set())

    def require(self, subject: str, obj: str, right: str) -> None:
        """Raise :class:`AccessDenied` unless the right is held."""
        if not self.check(subject, obj, right):
            raise AccessDenied(
                "{} lacks {} on {}".format(subject, right, obj))

    def request_change(self, requester: str, subject: str, obj: str,
                       right: str, add: bool = True):
        """Administrator-only change; effective after the admin delay.

        Returns an event firing when the change has taken effect.
        """
        if requester != self.administrator:
            raise AccessDenied(
                "only {} may administer the matrix".format(
                    self.administrator))
        if right not in RIGHTS:
            raise AccessPolicyError("unknown right: " + right)
        event = self.env.event()
        self.counters.incr("change_requests")
        self.env.timeout(self.admin_delay, (subject, obj, right, add, event)
                         ).callbacks.append(self._apply_later)
        return event

    def _apply_later(self, timer) -> None:
        subject, obj, right, add, event = timer.value
        rights = self._entries.setdefault((subject, obj), set())
        if add:
            rights.add(right)
        else:
            rights.discard(right)
        self.change_log.append((self.env.now, subject, obj, right, add))
        self.counters.incr("changes_applied")
        event.succeed(self.env.now)

    # -- derived mechanisms ------------------------------------------------------

    def acl_of(self, obj: str) -> Dict[str, Set[str]]:
        """The column of the matrix: the object's access control list."""
        return {subject: set(rights)
                for (subject, o), rights in self._entries.items()
                if o == obj and rights}

    def capabilities_of(self, subject: str) -> List["Capability"]:
        """The row of the matrix, minted as capability tokens."""
        return [Capability(subject, obj, right)
                for (s, obj), rights in self._entries.items()
                if s == subject
                for right in sorted(rights)]


class Capability:
    """An unforgeable (token, object, right) handle minted from the matrix."""

    __slots__ = ("token", "holder", "obj", "right")

    def __init__(self, holder: str, obj: str, right: str) -> None:
        self.token = "cap-{}".format(next(_capability_ids))
        self.holder = holder
        self.obj = obj
        self.right = right

    def permits(self, obj: str, right: str) -> bool:
        """Does this capability cover the requested access?"""
        return self.obj == obj and self.right == right

    def __repr__(self) -> str:
        return "<Capability {} {} on {}>".format(
            self.token, self.right, self.obj)
