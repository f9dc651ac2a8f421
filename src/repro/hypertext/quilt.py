"""Quilt-style co-authoring (§3.2.3).

*"A document in Quilt consists of a base and nodes linked to the base
using hypertext techniques.  ...users read a publicly available document
annotating the document to reflect their comments.  At any time a Quilt
comment network will consist of a current base document, some revision
suggestions, and a set of comments."*

Quilt also enforced social roles; here **authors** may revise the base and
incorporate suggestions, **co-authors** may suggest revisions and comment,
**commenters** may only comment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import AccessDenied, HypertextError
from repro.hypertext.network import HyperNode, HypertextNetwork

AUTHOR = "author"
CO_AUTHOR = "co-author"
COMMENTER = "commenter"

ROLES = (AUTHOR, CO_AUTHOR, COMMENTER)

COMMENT = "comment"
SUGGESTION = "suggestion"

OPEN = "open"
INCORPORATED = "incorporated"


class QuiltDocument:
    """A base document plus its annotation network."""

    def __init__(self, title: str, base_text: str, creator: str) -> None:
        self.title = title
        self.network = HypertextNetwork(title)
        self._roles: Dict[str, str] = {creator: AUTHOR}
        self.base: HyperNode = self.network.add_node(
            creator, "base", base_text)
        self.base_history: List[Tuple[int, str, str]] = [
            (1, creator, base_text)]
        #: annotation node_id -> status (suggestions only).
        self._suggestion_status: Dict[str, str] = {}

    # -- membership --------------------------------------------------------------

    def add_participant(self, user: str, role: str) -> None:
        if role not in ROLES:
            raise HypertextError("unknown role: " + role)
        self._roles[user] = role

    def role_of(self, user: str) -> str:
        try:
            return self._roles[user]
        except KeyError:
            raise AccessDenied(
                "{} is not a participant in {}".format(user, self.title))

    # -- reading -----------------------------------------------------------------

    @property
    def base_text(self) -> str:
        return self.base.content

    @property
    def base_version(self) -> int:
        return self.base.version

    def comments(self) -> List[HyperNode]:
        """All comment annotations, threaded ones included."""
        return [node for node in self.network.nodes()
                if node.kind == COMMENT]

    def suggestions(self, status: Optional[str] = None) -> List[HyperNode]:
        result = []
        for node in self.network.nodes():
            if node.kind != SUGGESTION:
                continue
            node_status = self._suggestion_status.get(node.node_id, OPEN)
            if status is None or node_status == status:
                result.append(node)
        return result

    def suggestion_status(self, node_id: str) -> str:
        if node_id not in self._suggestion_status:
            raise HypertextError(
                "{} is not a suggestion".format(node_id))
        return self._suggestion_status[node_id]

    # -- annotating ----------------------------------------------------------------

    def comment(self, user: str, text: str,
                on: Optional[str] = None) -> HyperNode:
        """Attach a comment to the base or to another annotation."""
        self.role_of(user)  # all roles may comment
        node = self.network.add_node(user, COMMENT, text)
        target = on or self.base.node_id
        self.network.add_link(user, node.node_id, target, "annotates")
        return node

    def suggest_revision(self, user: str, replacement_text: str
                         ) -> HyperNode:
        """Propose new base text (authors and co-authors only)."""
        if self.role_of(user) == COMMENTER:
            raise AccessDenied(
                "commenters may not suggest revisions")
        node = self.network.add_node(user, SUGGESTION, replacement_text)
        self.network.add_link(user, node.node_id, self.base.node_id,
                              "annotates")
        self._suggestion_status[node.node_id] = OPEN
        return node

    # -- revising ------------------------------------------------------------------

    def revise_base(self, user: str, new_text: str) -> int:
        """Authors may rewrite the base directly; returns new version."""
        if self.role_of(user) != AUTHOR:
            raise AccessDenied("only authors may revise the base")
        self.network.edit_node(user, self.base.node_id, new_text,
                               self.base.version)
        self.base_history.append((self.base.version, user, new_text))
        return self.base.version

    def incorporate(self, user: str, suggestion_id: str) -> int:
        """An author adopts a suggestion as the new base text."""
        if self.role_of(user) != AUTHOR:
            raise AccessDenied("only authors may incorporate suggestions")
        status = self.suggestion_status(suggestion_id)
        if status != OPEN:
            raise HypertextError(
                "suggestion {} is already {}".format(suggestion_id,
                                                     status))
        suggestion = self.network.node(suggestion_id)
        version = self.revise_base(user, suggestion.content)
        self._suggestion_status[suggestion_id] = INCORPORATED
        return version
