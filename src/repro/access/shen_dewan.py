"""Shen & Dewan's inheritance-based access model (CSCW'92; paper §4.2.1).

*"Shen and Dewan however describe a novel scheme featuring fine grain
control and multiple dynamic user roles."*

Their model arranges **subjects** (users and the roles/groups containing
them) and **objects** (documents and their parts) in hierarchies.  Rights
are specified for (subject, object) pairs — positively or negatively —
and inherited down both hierarchies; the most *specific* applicable entry
wins, with negative rights beating positive at equal specificity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import AccessDenied, AccessPolicyError
from repro.obs.metrics import Counter


class Hierarchy:
    """A rooted tree of named nodes (subject groups or object parts)."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._parent: Dict[str, Optional[str]] = {root: None}

    def add(self, name: str, parent: str) -> str:
        """Insert ``name`` under ``parent``."""
        if name in self._parent:
            raise AccessPolicyError("node {} already exists".format(name))
        if parent not in self._parent:
            raise AccessPolicyError("no parent named {}".format(parent))
        self._parent[name] = parent
        return name

    def __contains__(self, name: str) -> bool:
        return name in self._parent

    def move(self, name: str, new_parent: str) -> None:
        """Re-parent a node (dynamic role membership changes)."""
        if name not in self._parent or name == self.root:
            raise AccessPolicyError("cannot move {}".format(name))
        if new_parent not in self._parent:
            raise AccessPolicyError(
                "no parent named {}".format(new_parent))
        ancestor = new_parent
        while ancestor is not None:
            if ancestor == name:
                raise AccessPolicyError("move would create a cycle")
            ancestor = self._parent[ancestor]
        self._parent[name] = new_parent

    def chain(self, name: str) -> List[str]:
        """The node and its ancestors, most specific first."""
        if name not in self._parent:
            raise AccessPolicyError("no node named {}".format(name))
        result = []
        node: Optional[str] = name
        while node is not None:
            result.append(node)
            node = self._parent[node]
        return result

    def depth(self, name: str) -> int:
        """Distance from the root (root = 0)."""
        return len(self.chain(name)) - 1


class ShenDewanPolicy:
    """Double-inheritance rights with negative entries."""

    def __init__(self, subjects: Hierarchy, objects: Hierarchy) -> None:
        self.subjects = subjects
        self.objects = objects
        #: (subject, object, right) -> bool (True allow, False deny).
        self._entries: Dict[Tuple[str, str, str], bool] = {}
        self.counters = Counter()

    def grant(self, subject: str, obj: str, right: str) -> None:
        """Add a positive right for the (subject, object) pair."""
        self._set(subject, obj, right, True)

    def deny(self, subject: str, obj: str, right: str) -> None:
        """Add a negative right (overrides inherited positives)."""
        self._set(subject, obj, right, False)

    def _set(self, subject: str, obj: str, right: str,
             allow: bool) -> None:
        if subject not in self.subjects:
            raise AccessPolicyError("unknown subject " + subject)
        if obj not in self.objects:
            raise AccessPolicyError("unknown object " + obj)
        self._entries[(subject, obj, right)] = allow

    def check(self, subject: str, obj: str, right: str) -> bool:
        """Resolve by most-specific entry over both hierarchies.

        Specificity of an entry is the pair (subject depth + object
        depth); higher is more specific.  At equal specificity a negative
        entry wins.  With no applicable entry, access is denied.
        """
        self.counters.incr("checks")
        best_specificity = -1
        best_allow = False
        examined = 0
        for s in self.subjects.chain(subject):
            s_depth = self.subjects.depth(s)
            for o in self.objects.chain(obj):
                examined += 1
                entry = self._entries.get((s, o, right))
                if entry is None:
                    continue
                specificity = s_depth + self.objects.depth(o)
                if specificity > best_specificity:
                    best_specificity = specificity
                    best_allow = entry
                elif specificity == best_specificity and not entry:
                    best_allow = False
        self.counters.incr("entries_examined", examined)
        return best_allow

    def require(self, subject: str, obj: str, right: str) -> None:
        if not self.check(subject, obj, right):
            raise AccessDenied(
                "{} lacks {} on {}".format(subject, right, obj))

    @property
    def entry_count(self) -> int:
        return len(self._entries)
