"""Tests for speech acts, office procedures and informal routing."""

import pytest

from repro.errors import IllegalSpeechAct, WorkflowError
from repro.workflow import (
    COMPLETED,
    Conversation,
    FlexibleRouter,
    Procedure,
    ProcedureInstance,
    PROMISED,
    REQUESTED,
    STRICT,
    Step,
    TOLERANT,
    WorkObject,
    run_trace,
)
from repro.workflow.speech_acts import CANCELLED, DECLINED


# -- speech acts ----------------------------------------------------------------

def test_conversation_requires_distinct_parties():
    with pytest.raises(WorkflowError):
        Conversation("alice", "alice")


def test_happy_path_conversation():
    conversation = Conversation("alice", "bob", about="write report")
    assert conversation.perform("alice", "request") == REQUESTED
    assert conversation.perform("bob", "promise") == PROMISED
    conversation.perform("bob", "report_completion")
    conversation.perform("alice", "declare_complete")
    assert conversation.state == COMPLETED
    assert len(conversation.history) == 4


def test_decline_path():
    conversation = Conversation("alice", "bob")
    conversation.perform("alice", "request")
    conversation.perform("bob", "decline")
    assert conversation.state == DECLINED


def test_counter_offer_path():
    conversation = Conversation("alice", "bob")
    conversation.perform("alice", "request")
    conversation.perform("bob", "counter")
    conversation.perform("alice", "accept")
    assert conversation.state == PROMISED


def test_rework_loop():
    conversation = Conversation("alice", "bob")
    conversation.perform("alice", "request")
    conversation.perform("bob", "promise")
    conversation.perform("bob", "report_completion")
    conversation.perform("alice", "declare_incomplete")
    assert conversation.state == PROMISED  # back to work
    conversation.perform("bob", "report_completion")
    conversation.perform("alice", "declare_complete")
    assert conversation.state == COMPLETED


def test_illegal_act_rejected_with_legal_alternatives():
    conversation = Conversation("alice", "bob")
    conversation.perform("alice", "request")
    with pytest.raises(IllegalSpeechAct, match="promise"):
        conversation.perform("bob", "report_completion")


def test_non_party_rejected():
    conversation = Conversation("alice", "bob")
    with pytest.raises(WorkflowError):
        conversation.perform("carol", "request")


def test_legal_acts_listing():
    conversation = Conversation("alice", "bob")
    assert conversation.legal_acts("alice") == ["request"]
    assert conversation.legal_acts("bob") == []
    conversation.perform("alice", "request")
    assert conversation.legal_acts("bob") == ["counter", "decline",
                                              "promise"]


def test_customer_can_cancel_promised_work():
    conversation = Conversation("alice", "bob")
    conversation.perform("alice", "request")
    conversation.perform("bob", "promise")
    conversation.perform("alice", "cancel")
    assert conversation.state == CANCELLED


def test_run_trace_counts_rejections():
    # A natural but non-canonical interaction: thanks, small talk...
    trace = [("alice", "request"),
             ("bob", "acknowledge"),        # not in the model
             ("bob", "promise"),
             ("alice", "thank"),            # not in the model
             ("bob", "report_completion"),
             ("alice", "declare_complete")]
    conversation, rejections = run_trace("alice", "bob", trace)
    assert conversation.state == COMPLETED
    assert rejections == 2


# -- procedures ---------------------------------------------------------------

def expense_procedure():
    return Procedure("expenses", [
        Step("submit", "employee", "file_claim"),
        Step("check", "supervisor", "approve"),
        Step("pay", "finance", "transfer"),
    ])


def test_procedure_validation():
    with pytest.raises(WorkflowError):
        Procedure("empty", [])
    with pytest.raises(WorkflowError):
        Procedure("dupe", [Step("a", "r", "x"), Step("a", "r", "y")])


def test_procedure_happy_path():
    case = expense_procedure().instantiate()
    assert case.position == 0
    case.perform("employee", "file_claim")
    case.perform("supervisor", "approve")
    case.perform("finance", "transfer")
    assert case.complete
    assert case.exceptions == []


def test_strict_mode_rejects_wrong_role():
    case = expense_procedure().instantiate(mode=STRICT)
    case.perform("employee", "file_claim")
    with pytest.raises(WorkflowError, match="role"):
        # A colleague covers for the absent supervisor: real offices do
        # this (working division of labour); the strict model forbids it.
        case.perform("colleague", "approve")


def test_strict_mode_rejects_wrong_action():
    case = expense_procedure().instantiate(mode=STRICT)
    with pytest.raises(WorkflowError, match="action"):
        case.perform("employee", "resubmit_claim")


def test_tolerant_mode_logs_and_continues():
    case = expense_procedure().instantiate(mode=TOLERANT)
    case.perform("employee", "file_claim")
    case.perform("colleague", "approve")  # deviation, but work continues
    case.perform("finance", "transfer")
    assert case.complete
    assert len(case.exceptions) == 1
    assert case.exceptions[0][1] == "check"


def test_perform_after_completion_rejected():
    case = expense_procedure().instantiate(mode=TOLERANT)
    for role, action in [("employee", "file_claim"),
                         ("supervisor", "approve"),
                         ("finance", "transfer")]:
        case.perform(role, action)
    with pytest.raises(WorkflowError):
        case.perform("employee", "file_claim")


def test_unknown_mode_rejected():
    with pytest.raises(WorkflowError):
        expense_procedure().instantiate(mode="anarchic")


def test_run_trace_strict_vs_tolerant():
    deviating = [("employee", "file_claim"),
                 ("colleague", "approve"),
                 ("finance", "transfer")]
    strict_done, strict_errors = \
        expense_procedure().instantiate(STRICT).run_trace(deviating)
    tolerant_done, tolerant_errors = \
        expense_procedure().instantiate(TOLERANT).run_trace(deviating)
    assert not strict_done
    # The deviation bounces AND the case stalls, so the following
    # legitimate work bounces too — prescriptiveness compounds.
    assert strict_errors == 2
    assert tolerant_done
    assert tolerant_errors == 1     # logged, not blocking


# -- informal routing -------------------------------------------------------------

def test_router_accepts_anything():
    router = FlexibleRouter()
    obj = WorkObject("claim", {"amount": 40})
    router.submit(obj)
    router.perform("anyone", obj, "scribble")
    router.perform("anyone-else", obj, "stamp")
    assert router.actions_performed == 2
    assert obj.history == [("anyone", "scribble"),
                           ("anyone-else", "stamp")]


def test_rules_route_objects():
    router = FlexibleRouter()
    router.add_rule("big-claims",
                    lambda obj: "review" if obj.fields.get("amount", 0)
                    > 100 else None)
    small = WorkObject("claim", {"amount": 40})
    big = WorkObject("claim", {"amount": 400})
    router.submit(small)
    router.submit(big)
    assert small.folder == "inbox"
    assert big.folder == "review"


def test_field_update_retriggers_rules():
    router = FlexibleRouter()
    router.add_rule("done", lambda obj: "archive"
                    if obj.fields.get("state") == "closed" else None)
    obj = WorkObject("ticket")
    router.submit(obj)
    assert obj.folder == "inbox"
    router.perform("agent", obj, "close", state="closed")
    assert obj.folder == "archive"
    assert router.folders["inbox"] == []
    assert router.folders["archive"] == [obj]


def test_run_trace_never_rejects():
    router = FlexibleRouter()
    obj = WorkObject("claim")
    router.submit(obj)
    trace = [("alice", "request"), ("bob", "acknowledge"),
             ("bob", "promise"), ("alice", "thank"), ("bob", "done")]
    completed, rejections = router.run_trace(obj, trace)
    assert completed
    assert rejections == 0


def test_run_trace_incomplete_without_completion_action():
    router = FlexibleRouter()
    obj = WorkObject("claim")
    router.submit(obj)
    completed, rejections = router.run_trace(
        obj, [("alice", "ponder")])
    assert not completed
    assert rejections == 0
