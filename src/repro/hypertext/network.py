"""Multi-user hypertext (§3.2.3).

*"the hypertext document (or network) is constructed by a number of users
adding nodes to the network in an independent manner.  Facilities must
then be provided to deal explicitly with the conflicts inherent in this
process."*

Adding nodes and links is conflict-free by construction (independent
additions commute).  Editing an existing node is version-checked: an edit
based on a stale version does not silently overwrite — it *branches* into
an alternative node linked to the original, and the conflict is recorded
for the users to resolve socially.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import HypertextError

#: Link types in the spirit of Intermedia/SEPIA (incl. argumentation).
LINK_TYPES = ("reference", "comment", "supports", "refutes",
              "alternative", "annotates")


class HyperNode:
    """One node of the network: typed content with a version counter."""

    def __init__(self, node_id: str, kind: str, content: Any,
                 author: str) -> None:
        self.node_id = node_id
        self.kind = kind
        self.content = content
        self.author = author
        self.version = 1
        self.editors: List[str] = [author]

    def __repr__(self) -> str:
        return "<HyperNode {} {} v{}>".format(
            self.node_id, self.kind, self.version)


class HyperLink:
    """A typed, directed link between two nodes."""

    def __init__(self, link_id: str, src: str, dst: str, kind: str,
                 author: str) -> None:
        if kind not in LINK_TYPES:
            raise HypertextError("unknown link type: " + kind)
        self.link_id = link_id
        self.src = src
        self.dst = dst
        self.kind = kind
        self.author = author


class HypertextNetwork:
    """A shared hypertext built concurrently by many users."""

    def __init__(self, name: str = "network") -> None:
        self.name = name
        # Ids are per network, so two identical networks label alike.
        self._node_ids = itertools.count(1)
        self._link_ids = itertools.count(1)
        self._nodes: Dict[str, HyperNode] = {}
        self._links: List[HyperLink] = []
        #: (node_id, editor, stale_version, branch_node_id) records.
        self.conflicts: List[Tuple[str, str, int, str]] = []

    # -- construction -------------------------------------------------------------

    def add_node(self, author: str, kind: str, content: Any) -> HyperNode:
        """Independent addition: never conflicts."""
        node = HyperNode("n{}".format(next(self._node_ids)), kind, content,
                         author)
        self._nodes[node.node_id] = node
        return node

    def add_link(self, author: str, src: str, dst: str,
                 kind: str = "reference") -> HyperLink:
        """Link two existing nodes."""
        if src not in self._nodes or dst not in self._nodes:
            raise HypertextError("both endpoints must exist")
        link = HyperLink("l{}".format(next(self._link_ids)), src, dst, kind,
                         author)
        self._links.append(link)
        return link

    def node(self, node_id: str) -> HyperNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise HypertextError("no node {}".format(node_id))

    def nodes(self) -> List[HyperNode]:
        return list(self._nodes.values())

    def links_from(self, node_id: str,
                   kind: Optional[str] = None) -> List[HyperLink]:
        return [link for link in self._links
                if link.src == node_id
                and (kind is None or link.kind == kind)]

    def links_to(self, node_id: str,
                 kind: Optional[str] = None) -> List[HyperLink]:
        return [link for link in self._links
                if link.dst == node_id
                and (kind is None or link.kind == kind)]

    # -- concurrent editing ------------------------------------------------------------

    def edit_node(self, editor: str, node_id: str, new_content: Any,
                  base_version: int) -> HyperNode:
        """Edit with optimistic version checking.

        An edit based on the current version updates in place.  An edit
        based on a stale version *branches*: the stale edit becomes a new
        node linked as an "alternative", and the conflict is recorded for
        explicit resolution.  Returns the node actually written.
        """
        node = self.node(node_id)
        if base_version == node.version:
            node.content = new_content
            node.version += 1
            if editor not in node.editors:
                node.editors.append(editor)
            return node
        branch = self.add_node(editor, node.kind, new_content)
        self.add_link(editor, branch.node_id, node_id, "alternative")
        self.conflicts.append(
            (node_id, editor, base_version, branch.node_id))
        return branch

    def alternatives_of(self, node_id: str) -> List[HyperNode]:
        """Branched alternatives awaiting social resolution."""
        return [self.node(link.src)
                for link in self.links_to(node_id, "alternative")]

    def resolve_conflict(self, resolver: str, node_id: str,
                         chosen_branch: str) -> HyperNode:
        """Adopt a branch's content as the node's next version."""
        node = self.node(node_id)
        branch = self.node(chosen_branch)
        if branch not in self.alternatives_of(node_id):
            raise HypertextError(
                "{} is not an alternative of {}".format(
                    chosen_branch, node_id))
        node.content = branch.content
        node.version += 1
        if resolver not in node.editors:
            node.editors.append(resolver)
        self._links = [link for link in self._links
                       if not (link.src == chosen_branch
                               and link.dst == node_id
                               and link.kind == "alternative")]
        del self._nodes[chosen_branch]
        return node
