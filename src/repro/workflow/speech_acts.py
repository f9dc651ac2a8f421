"""Speech-act workflow: the Coordinator's conversation for action (§3.2.1).

Winograd & Flores' conversation-for-action network, as used by the
Co-ordinator and ActionWorkflow systems the paper cites.  A conversation
moves through a fixed state machine of speech acts between a *customer*
(who requests) and a *performer* (who promises and reports).

The machine is deliberately strict — an act not licensed by the current
state raises :class:`IllegalSpeechAct`.  That strictness is precisely the
property the paper's §4.1 criticises (*"the overly prescriptive nature of
this underlying model"*); ablation A2 counts how many real interaction
traces it rejects compared with informal routing.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import IllegalSpeechAct, WorkflowError

CUSTOMER = "customer"
PERFORMER = "performer"

# Conversation states.
INITIAL = "initial"
REQUESTED = "requested"
COUNTERED = "countered"
PROMISED = "promised"
REPORTED = "reported"
COMPLETED = "completed"
DECLINED = "declined"
WITHDRAWN = "withdrawn"
CANCELLED = "cancelled"
RENEGED = "reneged"


#: (state, role, act) -> next state.  The conversation-for-action net.
TRANSITIONS: Dict[Tuple[str, str, str], str] = {
    (INITIAL, CUSTOMER, "request"): REQUESTED,
    (REQUESTED, PERFORMER, "promise"): PROMISED,
    (REQUESTED, PERFORMER, "counter"): COUNTERED,
    (REQUESTED, PERFORMER, "decline"): DECLINED,
    (REQUESTED, CUSTOMER, "withdraw"): WITHDRAWN,
    (COUNTERED, CUSTOMER, "accept"): PROMISED,
    (COUNTERED, CUSTOMER, "counter"): COUNTERED,
    (COUNTERED, CUSTOMER, "withdraw"): WITHDRAWN,
    (COUNTERED, PERFORMER, "counter"): COUNTERED,
    (PROMISED, PERFORMER, "report_completion"): REPORTED,
    (PROMISED, PERFORMER, "renege"): RENEGED,
    (PROMISED, CUSTOMER, "cancel"): CANCELLED,
    (REPORTED, CUSTOMER, "declare_complete"): COMPLETED,
    (REPORTED, CUSTOMER, "declare_incomplete"): PROMISED,
}


class Conversation:
    """One conversation for action between a customer and a performer."""

    def __init__(self, customer: str, performer: str,
                 about: str = "") -> None:
        if customer == performer:
            raise WorkflowError("customer and performer must differ")
        self.customer = customer
        self.performer = performer
        self.about = about
        self.state = INITIAL
        #: (actor, act, state after) history — the paper notes Coordinator
        #: makes this dimension of communication explicit and textual.
        self.history: List[Tuple[str, str, str]] = []

    def role_of(self, actor: str) -> str:
        if actor == self.customer:
            return CUSTOMER
        if actor == self.performer:
            return PERFORMER
        raise WorkflowError(
            "{} is not a party to the conversation between {} and {}"
            .format(actor, self.customer, self.performer))

    def legal_acts(self, actor: str) -> List[str]:
        """The acts the model currently licenses for ``actor``."""
        role = self.role_of(actor)
        return sorted(act for (state, r, act) in TRANSITIONS
                      if state == self.state and r == role)

    def perform(self, actor: str, act: str) -> str:
        """Perform a speech act; returns the new state.

        Raises :class:`IllegalSpeechAct` when the act is not licensed —
        the model *prescribes* what may be said next.
        """
        role = self.role_of(actor)
        key = (self.state, role, act)
        if key not in TRANSITIONS:
            raise IllegalSpeechAct(
                "{} may not '{}' in state '{}' (legal: {})".format(
                    actor, act, self.state,
                    ", ".join(self.legal_acts(actor)) or "none"))
        self.state = TRANSITIONS[key]
        self.history.append((actor, act, self.state))
        return self.state

    def __repr__(self) -> str:
        return "<Conversation {}->{} [{}]>".format(
            self.customer, self.performer, self.state)


def run_trace(customer: str, performer: str,
              trace: List[Tuple[str, str]]) -> Tuple[Conversation, int]:
    """Replay an interaction trace; returns (conversation, rejections).

    Each rejected act is skipped (the user is forced to rephrase) and
    counted — the A2 prescriptiveness metric.
    """
    conversation = Conversation(customer, performer)
    rejections = 0
    for actor, act in trace:
        try:
            conversation.perform(actor, act)
        except (IllegalSpeechAct, WorkflowError):
            rejections += 1
    return conversation, rejections
