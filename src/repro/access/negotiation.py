"""Negotiated access-control changes (§4.2.1).

The paper: *"It is also likely that such changes will be made as a result
of negotiation between parties involved."*  :class:`AccessNegotiator`
implements a small request/decide protocol: a member asks an artefact's
current controllers for a right; controllers respond within a deadline;
unanimous assent grants, any explicit refusal denies immediately, and
the outcome is applied to a role-based policy automatically.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import AccessPolicyError
from repro.access.roles import Role, RoleBasedPolicy
from repro.obs.metrics import Counter
from repro.sim import Environment, Event

GRANTED = "granted"
DENIED = "denied"
EXPIRED = "expired"


class NegotiationRequest:
    """One in-flight request for a right."""

    def __init__(self, request_id: int, requester: str, artefact: str,
                 right: str, controllers: List[str], deadline: float,
                 event: Event) -> None:
        self.request_id = request_id
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

    def __init__(self, env: Environment, policy: RoleBasedPolicy) -> None:
        self.env = env
        self.policy = policy
        self._requests = 0
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
        self._requests += 1
        req = NegotiationRequest(self._requests, requester, artefact, right,
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
        # Veto-friendly: any refusal denies immediately; granting
        # requires every controller's assent.
        if not grant:
            self._conclude(req, DENIED)
        elif len(req.votes) == len(req.controllers):
            self._conclude(req, GRANTED)

    # -- internals -------------------------------------------------------------

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
        """Install the granted right as a one-off negotiated role.

        The role is numbered by its policy, not by this negotiator, so
        two negotiators on one policy never name two roles alike.
        """
        role_name = "negotiated-{}".format(self.policy.defined_roles() + 1)
        role = Role(role_name).allow(req.artefact, req.right)
        self.policy.define(role)
        self.policy.assign(req.requester, role_name, at=self.env.now)

    def _expire(self, timer: Event) -> None:
        req = timer.value
        if req.outcome is None:
            self._conclude(req, EXPIRED)
