"""Negotiated access-control changes (§4.2.1).

The paper: *"It is also likely that such changes will be made as a result
of negotiation between parties involved."*  :class:`AccessNegotiator`
implements a small request/decide protocol: a member asks an artefact's
current controllers for a right; controllers respond within a deadline;
a configurable decision rule (default: unanimous assent grants, any
explicit refusal denies immediately) determines the outcome, which is
applied to a role-based policy automatically.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.errors import AccessPolicyError
from repro.access.roles import Role, RoleBasedPolicy
from repro.obs.metrics import Counter
from repro.sim import Environment, Event

GRANTED = "granted"
DENIED = "denied"
EXPIRED = "expired"

_request_ids = itertools.count(1)  # repro: allow-RPR005 (ids are labels, not behaviour)


class NegotiationRequest:
    """One in-flight request for a right."""

    def __init__(self, requester: str, artefact: str, right: str,
                 controllers: List[str], deadline: float,
                 event: Event) -> None:
        self.request_id = next(_request_ids)
        self.requester = requester
        self.artefact = artefact
        self.right = right
        self.controllers = list(controllers)
        self.deadline = deadline
        self.event = event
        self.votes: Dict[str, bool] = {}
        self.outcome: Optional[str] = None


class AccessNegotiator:
    """Mediates rights requests between a requester and controllers."""

    def __init__(self, env: Environment, policy: RoleBasedPolicy,
                 decision: Optional[Callable[[Dict[str, bool], int],
                                             Optional[bool]]] = None
                 ) -> None:
        self.env = env
        self.policy = policy
        self.decision = decision or self._default_decision
        self._pending: Dict[int, NegotiationRequest] = {}
        self._handlers: Dict[str, Callable[[NegotiationRequest], None]] = {}
        self.counters = Counter()

    def on_request(self, controller: str,
                   handler: Callable[[NegotiationRequest], None]) -> None:
        """Notify ``controller`` when a negotiation involves them."""
        self._handlers[controller] = handler

    def request(self, requester: str, artefact: str, right: str,
                controllers: List[str], deadline: float = 30.0) -> Event:
        """Open a negotiation; the event fires with the outcome string."""
        if not controllers:
            raise AccessPolicyError(
                "negotiation requires at least one controller")
        if not deadline >= 0:  # also rejects NaN
            raise AccessPolicyError(
                "deadline must be non-negative: {!r}".format(deadline))
        event = self.env.event()
        req = NegotiationRequest(requester, artefact, right,
                                 controllers, deadline, event)
        self._pending[req.request_id] = req
        self.counters.incr("requests")
        for controller in controllers:
            handler = self._handlers.get(controller)
            if handler is not None:
                handler(req)
        self.env.timeout(deadline, req).callbacks.append(self._expire)
        return event

    def respond(self, request_id: int, controller: str,
                grant: bool) -> None:
        """A controller's vote on a pending request."""
        req = self._pending.get(request_id)
        if req is None:
            return  # already decided; late votes are dropped
        if controller not in req.controllers:
            raise AccessPolicyError(
                "{} is not a controller for request {}".format(
                    controller, request_id))
        req.votes[controller] = grant
        decision = self.decision(req.votes, len(req.controllers))
        if decision is not None:
            self._conclude(req, GRANTED if decision else DENIED)

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _default_decision(votes: Dict[str, bool],
                          controllers: int) -> Optional[bool]:
        """Veto-friendly rule: any refusal denies immediately; granting
        requires every controller's assent."""
        if any(not vote for vote in votes.values()):
            return False
        if len(votes) == controllers:
            return True
        return None

    def _conclude(self, req: NegotiationRequest, outcome: str) -> None:
        if req.outcome is not None:
            return
        req.outcome = outcome
        self._pending.pop(req.request_id, None)
        self.counters.incr(outcome)
        if outcome == GRANTED:
            self._apply(req)
        req.event.succeed(outcome)

    def _apply(self, req: NegotiationRequest) -> None:
        """Install the granted right as a one-off negotiated role."""
        role_name = "negotiated-{}".format(req.request_id)
        role = Role(role_name).allow(req.artefact, req.right)
        self.policy.define(role)
        self.policy.assign(req.requester, role_name, at=self.env.now)

    def _expire(self, timer: Event) -> None:
        req = timer.value
        if req.outcome is None:
            self._conclude(req, EXPIRED)
