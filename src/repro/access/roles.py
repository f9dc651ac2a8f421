"""Dynamic role-based access control for collaboration (§4.2.1).

The paper: *"It is now generally recognised in CSCW that access control
policies should be based on the concept of role.  Furthermore, it is
recognised that roles are dynamic, changing frequently during the course
of a collaboration... access models within CSCW systems should also
support dynamic changes to access control information."*

:class:`RoleBasedPolicy` supports exactly that: rights attach to roles
over artefact *patterns* (supporting fine granularity down to individual
lines); users take and shed roles at any instant with immediate effect;
every change is kept in an audit trail (:attr:`RoleBasedPolicy.change_log`).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.errors import AccessDenied, AccessPolicyError
from repro.obs.metrics import Counter

READ = "read"
WRITE = "write"
ANNOTATE = "annotate"
GRANT = "grant"


def pattern_matches(pattern: str, artefact: str) -> bool:
    """Hierarchical pattern match on '/'-separated artefact paths.

    A trailing ``*`` segment matches any remainder: ``doc/sec:1/*``
    covers every paragraph and line under section 1.  ``*`` alone matches
    everything.
    """
    if pattern == "*":
        return True
    pattern_parts = pattern.split("/")
    artefact_parts = artefact.split("/")
    for i, part in enumerate(pattern_parts):
        if part == "*":
            return True
        if i >= len(artefact_parts) or artefact_parts[i] != part:
            return False
    return len(pattern_parts) == len(artefact_parts)


class Role:
    """A named bundle of (artefact pattern → rights) rules."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._rules: List[Tuple[str, Set[str]]] = []

    def allow(self, pattern: str, *rights: str) -> "Role":
        """Grant ``rights`` on artefacts matching ``pattern``."""
        if not rights:
            raise AccessPolicyError("allow() requires at least one right")
        self._rules.append((pattern, set(rights)))
        return self

    def permits(self, artefact: str, right: str) -> bool:
        """Does this role confer ``right`` on ``artefact``?"""
        return any(right in rights and pattern_matches(pattern, artefact)
                   for pattern, rights in self._rules)

    def __repr__(self) -> str:
        return "<Role {} rules={}>".format(self.name, len(self._rules))


class RoleBasedPolicy:
    """Users hold dynamic roles; checks consult the current bindings."""

    def __init__(self) -> None:
        self._roles: Dict[str, Role] = {}
        self._bindings: Dict[str, Set[str]] = {}
        self.counters = Counter()
        #: (at, user, role, assigned?) — the dynamic-change audit trail.
        self.change_log: List[Tuple[float, str, str, bool]] = []

    def define(self, role: Role) -> Role:
        """Register a role definition."""
        if role.name in self._roles:
            raise AccessPolicyError(
                "role {} already defined".format(role.name))
        self._roles[role.name] = role
        return role

    def defined_roles(self) -> int:
        """How many roles have been defined (none is ever undefined)."""
        return len(self._roles)

    def role(self, name: str) -> Role:
        try:
            return self._roles[name]
        except KeyError:
            raise AccessPolicyError("no role named {}".format(name))

    def assign(self, user: str, role_name: str, at: float = 0.0) -> None:
        """Give ``user`` the role — effective immediately."""
        self.role(role_name)
        self._bindings.setdefault(user, set()).add(role_name)
        self.change_log.append((at, user, role_name, True))
        self.counters.incr("role_changes")

    def roles_of(self, user: str) -> Set[str]:
        return set(self._bindings.get(user, set()))

    def check(self, user: str, artefact: str, right: str) -> bool:
        """Does any of the user's current roles confer the right?"""
        self.counters.incr("checks")
        return any(self._roles[name].permits(artefact, right)
                   for name in self._bindings.get(user, set()))

    def require(self, user: str, artefact: str, right: str) -> None:
        if not self.check(user, artefact, right):
            raise AccessDenied(
                "{} lacks {} on {} (roles: {})".format(
                    user, right, artefact,
                    sorted(self.roles_of(user)) or "none"))
