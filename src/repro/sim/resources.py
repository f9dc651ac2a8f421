"""The two queueing primitives the middleware's traffic uses.

:class:`PriorityResource` is a link's transmission channel: one claim
holds it at a time, and waiting claims are granted by priority, then in
request order, so QoS-reserved packets overtake queued best-effort ones
(a holder is never pre-empted).  :class:`Store` is an unbounded FIFO of
items: host and reliable-channel inboxes, group delivery queues and a
group call's replies.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, List, Optional

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.environment import Environment, _NORMAL_BASE


class PriorityRequest(Event):
    """A claim on a :class:`PriorityResource`; fires when granted.

    Lower ``priority`` values are more important; equal priorities are
    granted in request order (the resource's ticket ``seq``), so the
    simulation stays deterministic.

    ``grant_delay`` (default 0) fuses the claim with the usage that
    follows it: instead of firing at grant time and having the waiter
    immediately schedule a ``grant_delay`` timeout (two events per
    claim), the request fires once at ``grant_time + grant_delay``.
    ``usage_since`` still records the grant instant, so holders can
    recover when their usage actually began.
    """

    __slots__ = ("resource", "usage_since", "grant_delay", "priority", "seq")

    def __init__(self, resource: "PriorityResource", priority: int = 0,
                 grant_delay: float = 0.0) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.usage_since: Optional[float] = None
        self.grant_delay = grant_delay
        self.priority = priority
        self.seq = next(resource._ticket)
        resource._do_request(self)

    def __lt__(self, other: "PriorityRequest") -> bool:
        return (self.priority, self.seq) < (other.priority, other.seq)

    def __enter__(self) -> "PriorityRequest":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the claim (or withdraw the pending request)."""
        self.resource.release(self)


class PriorityResource:
    """A channel one claim holds at a time, its waiters in priority order.

    The tie-break ticket lives on the resource, not the module, so
    experiments sharing one process cannot perturb each other.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.users: List[PriorityRequest] = []
        #: Waiting claims, a heap.
        self.queue: List[PriorityRequest] = []
        self._ticket = itertools.count(1)

    @property
    def count(self) -> int:
        """Number of claims currently holding the resource (0 or 1)."""
        return len(self.users)

    def request(self, priority: int = 0) -> PriorityRequest:
        """Claim the resource; the returned event fires when granted."""
        return PriorityRequest(self, priority)

    def release(self, request: PriorityRequest) -> None:
        """Return the resource (or withdraw a queued request)."""
        # Held claims are the overwhelmingly common case (one per packet
        # hop), so try the remove directly instead of scanning with ``in``
        # first; the queued/unknown cases fall through unchanged.
        try:
            self.users.remove(request)
        except ValueError:
            if request in self.queue:
                self.queue.remove(request)
                heapify(self.queue)
        self._grant_waiters()

    def _do_request(self, request: PriorityRequest) -> None:
        if self.users:
            heappush(self.queue, request)
        else:
            self._grant(request)

    def _grant(self, request: PriorityRequest) -> None:
        self.users.append(request)
        env = self.env
        request.usage_since = env.now
        # request.succeed(request) inlined (one grant per packet hop);
        # a double trigger still raises, via schedule-time state instead.
        if request._ok is not None:
            raise SimulationError("event already triggered")
        request._ok = True
        request._value = request
        env._eid += 1
        env._push(env.now + request.grant_delay,
                  _NORMAL_BASE + env._eid, request)

    def _grant_waiters(self) -> None:
        if self.queue and not self.users:
            self._grant(heappop(self.queue))


class StoreGet(Event):
    """A pending take from a :class:`Store`; fires with the item."""

    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self.store = store
        store._getters.append(self)
        if store.items:
            store._serve()

    def cancel(self) -> None:
        """Withdraw the pending take."""
        if self in self.store._getters:
            self.store._getters.remove(self)


class Store:
    """An unbounded FIFO buffer of items; takes are served in order."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.items: List[Any] = []
        self._getters: List[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    # repro: fast-path — one put per delivered packet; no blocking
    # constructs here (repro.analysis.protocol enforces RPR204).
    def put(self, item: Any) -> None:
        """Add ``item``, handing it on to a waiting take if there is one.

        Nothing is queued for the put itself: a store is never full, so
        there is no acceptance for anybody to wait on.
        """
        self.items.append(item)
        if self._getters:
            self._serve()

    def get(self) -> StoreGet:
        """Take the oldest item; fires when one is available."""
        return StoreGet(self)

    def _serve(self) -> None:
        getters, items = self._getters, self.items
        while getters and items:
            getters.pop(0).succeed(items.pop(0))
