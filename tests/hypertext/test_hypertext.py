"""Tests for multi-user hypertext and Quilt co-authoring."""

import pytest

from repro.errors import AccessDenied, HypertextError
from repro.hypertext import (
    AUTHOR,
    CO_AUTHOR,
    COMMENTER,
    HypertextNetwork,
    INCORPORATED,
    OPEN,
    QuiltDocument,
    REJECTED,
)


# -- network -------------------------------------------------------------------

def test_independent_additions_never_conflict():
    network = HypertextNetwork()
    a = network.add_node("alice", "idea", "use a cache")
    b = network.add_node("bob", "idea", "shard the data")
    assert len(network.nodes()) == 2
    assert network.conflicts == []
    assert a.node_id != b.node_id


def test_links_require_existing_endpoints():
    network = HypertextNetwork()
    node = network.add_node("alice", "idea", "x")
    with pytest.raises(HypertextError):
        network.add_link("alice", node.node_id, "n9999")
    with pytest.raises(HypertextError):
        network.node("n9999")


def test_link_types_validated():
    network = HypertextNetwork()
    a = network.add_node("alice", "idea", "x")
    b = network.add_node("bob", "idea", "y")
    with pytest.raises(HypertextError):
        network.add_link("bob", b.node_id, a.node_id, kind="teleports")
    link = network.add_link("bob", b.node_id, a.node_id, kind="refutes")
    assert network.links_from(b.node_id, "refutes") == [link]
    assert network.links_to(a.node_id) == [link]


def test_edit_with_current_version_updates_in_place():
    network = HypertextNetwork()
    node = network.add_node("alice", "section", "draft")
    written = network.edit_node("bob", node.node_id, "better draft",
                                base_version=1)
    assert written is node
    assert node.content == "better draft"
    assert node.version == 2
    assert node.editors == ["alice", "bob"]
    assert network.conflicts == []


def test_stale_edit_branches_and_records_conflict():
    network = HypertextNetwork()
    node = network.add_node("alice", "section", "draft")
    network.edit_node("bob", node.node_id, "bob's version",
                      base_version=1)
    branch = network.edit_node("carol", node.node_id, "carol's version",
                               base_version=1)  # stale!
    assert branch is not node
    assert node.content == "bob's version"
    assert branch.content == "carol's version"
    assert len(network.conflicts) == 1
    assert network.alternatives_of(node.node_id) == [branch]


def test_conflict_resolution_adopts_branch():
    network = HypertextNetwork()
    node = network.add_node("alice", "section", "draft")
    network.edit_node("bob", node.node_id, "bob's", base_version=1)
    branch = network.edit_node("carol", node.node_id, "carol's",
                               base_version=1)
    resolved = network.resolve_conflict("alice", node.node_id,
                                        branch.node_id)
    assert resolved.content == "carol's"
    assert resolved.version == 3
    assert network.alternatives_of(node.node_id) == []


def test_resolve_requires_actual_alternative():
    network = HypertextNetwork()
    node = network.add_node("alice", "section", "draft")
    other = network.add_node("bob", "section", "unrelated")
    with pytest.raises(HypertextError):
        network.resolve_conflict("alice", node.node_id, other.node_id)


# -- Quilt ---------------------------------------------------------------------

def make_document():
    doc = QuiltDocument("paper", "Abstract. Intro.", creator="alice")
    doc.add_participant("bob", CO_AUTHOR)
    doc.add_participant("carol", COMMENTER)
    return doc


def test_roles():
    doc = make_document()
    assert doc.role_of("alice") == AUTHOR
    assert doc.role_of("bob") == CO_AUTHOR
    with pytest.raises(AccessDenied):
        doc.role_of("stranger")
    with pytest.raises(HypertextError):
        doc.add_participant("dave", "lurker")


def test_everyone_may_comment():
    doc = make_document()
    for user in ("alice", "bob", "carol"):
        doc.comment(user, "note from " + user)
    assert len(doc.comments()) == 3


def test_threaded_comments():
    doc = make_document()
    first = doc.comment("bob", "is this right?")
    reply = doc.comment("alice", "yes, checked", on=first.node_id)
    assert doc.thread_of(first.node_id) == [reply]


def test_commenter_cannot_suggest():
    doc = make_document()
    with pytest.raises(AccessDenied):
        doc.suggest_revision("carol", "my rewrite")


def test_co_author_suggests_author_incorporates():
    doc = make_document()
    suggestion = doc.suggest_revision("bob", "Abstract. Better intro.")
    assert doc.suggestion_status(suggestion.node_id) == OPEN
    version = doc.incorporate("alice", suggestion.node_id)
    assert version == 2
    assert doc.base_text == "Abstract. Better intro."
    assert doc.suggestion_status(suggestion.node_id) == INCORPORATED
    assert doc.suggestions(status=OPEN) == []


def test_only_author_incorporates():
    doc = make_document()
    suggestion = doc.suggest_revision("bob", "rewrite")
    with pytest.raises(AccessDenied):
        doc.incorporate("bob", suggestion.node_id)


def test_incorporate_twice_rejected():
    doc = make_document()
    suggestion = doc.suggest_revision("bob", "rewrite")
    doc.incorporate("alice", suggestion.node_id)
    with pytest.raises(HypertextError):
        doc.incorporate("alice", suggestion.node_id)


def test_reject_suggestion_keeps_it_visible():
    doc = make_document()
    suggestion = doc.suggest_revision("bob", "radical rewrite")
    doc.reject("alice", suggestion.node_id)
    assert doc.suggestion_status(suggestion.node_id) == REJECTED
    assert suggestion in doc.suggestions()
    with pytest.raises(HypertextError):
        doc.reject("alice", suggestion.node_id)


def test_only_author_revises_base():
    doc = make_document()
    with pytest.raises(AccessDenied):
        doc.revise_base("bob", "hostile takeover")
    doc.revise_base("alice", "Abstract. Intro. Conclusion.")
    assert doc.base_version == 2
    assert len(doc.base_history) == 2


def test_suggestion_status_requires_suggestion():
    doc = make_document()
    note = doc.comment("carol", "nice")
    with pytest.raises(HypertextError):
        doc.suggestion_status(note.node_id)


def test_comment_network_shape():
    """The paper's description: base + suggestions + comments."""
    doc = make_document()
    doc.comment("carol", "typo in line 3")
    doc.suggest_revision("bob", "Abstract, improved. Intro.")
    annotations = doc.network.links_to(doc.base.node_id, "annotates")
    assert len(annotations) == 2


def test_ids_do_not_leak_between_documents():
    def annotate():
        doc = make_document()
        note = doc.comment("carol", "typo in line 3")
        link, = doc.network.links_to(doc.base.node_id)
        return doc.base.node_id, note.node_id, link.link_id

    assert annotate() == annotate() == ("n1", "n2", "l1")
