"""Shared-resource primitives built on the simulation kernel.

These are the queueing building blocks for the middleware layers: capacity-
limited :class:`Resource` (e.g. a CPU or a lock), :class:`PriorityResource`
(with optional preemption via interrupt), :class:`Store` (a producer/consumer
buffer used for message queues) and :class:`Container` (continuous quantity,
used e.g. for link bandwidth accounting).
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.environment import Environment, _NORMAL_BASE


def _metrics():
    # Imported lazily: repro.obs.metrics itself imports repro.sim, so a
    # module-level import here would close a package-import cycle.
    from repro.obs.metrics import get_metrics
    return get_metrics()


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when granted.

    ``grant_delay`` (default 0) fuses the claim with the usage that
    follows it: instead of firing at grant time and having the waiter
    immediately schedule a ``grant_delay`` timeout (two events per
    claim), the request fires once at ``grant_time + grant_delay``.
    ``usage_since`` still records the grant instant, so holders can
    recover when their usage actually began.
    """

    __slots__ = ("resource", "requested_at", "usage_since", "grant_delay")

    def __init__(self, resource: "Resource",
                 grant_delay: float = 0.0) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.requested_at = self.env._now
        self.usage_since: Optional[float] = None
        self.grant_delay = grant_delay
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the claim (or withdraw the pending request)."""
        self.resource.release(self)


class Resource:
    """A resource with finite capacity and a FIFO wait queue.

    Give the resource a ``name`` to register observability hooks: a
    ``resource.queue_depth`` gauge sampled on every queue change and a
    ``resource.wait`` histogram of request-to-grant delays, both
    labelled with the name.  Unnamed resources record nothing, so hot
    anonymous queues stay cheap.
    """

    def __init__(self, env: Environment, capacity: int = 1,
                 name: Optional[str] = None) -> None:
        if not capacity > 0:  # also rejects NaN
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users: List[Request] = []
        self.queue: List[Request] = []

    @property
    def count(self) -> int:
        """Number of requests currently holding the resource."""
        return len(self.users)

    def request(self) -> Request:
        """Claim the resource; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return the resource (or withdraw a queued request)."""
        # Held claims are the overwhelmingly common case (one per packet
        # hop), so try the remove directly instead of scanning with ``in``
        # first; the queued/unknown cases fall through unchanged.
        try:
            self.users.remove(request)
        except ValueError:
            if request in self.queue:
                self.queue.remove(request)
                self._sample_queue()
        self._grant_waiters()

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self._grant(request)
        else:
            self.queue.append(request)
            self._sample_queue()

    def _grant(self, request: Request) -> None:
        self.users.append(request)
        env = self.env
        request.usage_since = env._now
        if self.name is not None:
            _metrics().histogram("resource.wait", resource=self.name) \
                .record(env._now - request.requested_at)
        # request.succeed(request) inlined (one grant per packet hop);
        # a double trigger still raises, via schedule-time state instead.
        if request._ok is not None:
            raise SimulationError("event already triggered")
        request._ok = True
        request._value = request
        env._eid += 1
        env._push(env._now + request.grant_delay,
                  _NORMAL_BASE + env._eid, request)

    def _grant_waiters(self) -> None:
        granted = False
        while self.queue and len(self.users) < self.capacity:
            self._grant(self._pop_next())
            granted = True
        if granted:
            self._sample_queue()

    def _pop_next(self) -> Request:
        return self.queue.pop(0)

    def _sample_queue(self) -> None:
        if self.name is not None:
            _metrics().gauge("resource.queue_depth",
                             resource=self.name) \
                .set(len(self.queue), at=self.env.now)


class PriorityRequest(Request):
    """A claim with a priority (lower value = more important).

    Ties break by request creation order, so equal-priority claims are
    strictly FIFO (deterministic simulation).  The tie-break sequence
    lives on the resource, not the module, so experiments sharing one
    process cannot perturb each other.
    """

    __slots__ = ("priority", "time", "seq")

    def __init__(self, resource: "PriorityResource", priority: int,
                 grant_delay: float = 0.0) -> None:
        self.priority = priority
        self.time = resource.env._now
        self.seq = next(resource._ticket)
        super().__init__(resource, grant_delay)

    def __lt__(self, other: "PriorityRequest") -> bool:
        return (self.priority, self.time, self.seq) < \
            (other.priority, other.time, other.seq)


class PriorityResource(Resource):
    """A resource whose wait queue is ordered by request priority."""

    def __init__(self, env: Environment, capacity: int = 1,
                 name: Optional[str] = None) -> None:
        super().__init__(env, capacity, name)
        self._ticket = itertools.count(1)

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self._grant(request)
        else:
            heappush(self.queue, request)  # type: ignore[arg-type]
            self._sample_queue()

    def _pop_next(self) -> Request:
        return heappop(self.queue)  # type: ignore[arg-type]


class StoreGet(Event):
    """A pending take from a :class:`Store`; fires with the item."""

    __slots__ = ("filter", "store", "requested_at")

    def __init__(self, store: "Store",
                 filter: Optional[Callable[[Any], bool]] = None) -> None:
        super().__init__(store.env)
        self.filter = filter
        self.store = store
        self.requested_at = self.env._now
        store._getters.append(self)
        store._dispatch()

    def cancel(self) -> None:
        """Withdraw the pending take."""
        if self in self.store._getters:
            self.store._getters.remove(self)


class StorePut(Event):
    """A pending put into a :class:`Store`; fires when accepted."""

    __slots__ = ("item", "store")

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        self.store = store
        store._putters.append(self)
        store._dispatch()


class Store:
    """A FIFO buffer of items with optional capacity.

    ``get`` accepts an optional filter predicate, which turns the store into
    a ``FilterStore`` (take the first matching item).
    """

    def __init__(self, env: Environment,
                 capacity: float = float("inf"),
                 name: Optional[str] = None) -> None:
        if not capacity > 0:  # also rejects NaN
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: List[Any] = []
        self._getters: List[StoreGet] = []
        self._putters: List[StorePut] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Add ``item``; the returned event fires once there is room."""
        return StorePut(self, item)

    # repro: fast-path — one put per delivered packet; no blocking
    # constructs here (repro.analysis.protocol enforces RPR204).
    def put_fast(self, item: Any) -> Optional[StorePut]:
        """Fire-and-forget put with the accepted-put event elided.

        For callers that discard the put event (the network's inbox
        delivery): when the put would be accepted immediately — room in
        an unnamed store with no queued putters — nobody can ever
        subscribe to it, so popping it later is a guaranteed no-op and
        the event is never queued; waiting getters are then matched
        through the regular dispatch.  Named stores, full stores and
        stores with queued putters fall back to the generic :meth:`put`.
        """
        if self._putters or self.name is not None \
                or len(self.items) >= self.capacity:
            return StorePut(self, item)
        self.items.append(item)
        if self._getters:
            self._dispatch()
        return None

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Take the first (matching) item; fires when one is available."""
        return StoreGet(self, filter)

    def _dispatch(self) -> None:
        env = self.env
        progressed = True
        while progressed:
            progressed = False
            # Move accepted puts into the buffer.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.pop(0)
                self.items.append(put.item)
                put.succeed()
                progressed = True
            # Satisfy getters from the buffer.
            if not self._getters:
                continue
            for getter in list(self._getters):
                index = self._find(getter)
                if index is None:
                    continue
                item = self.items.pop(index)
                self._getters.remove(getter)
                if self.name is not None:
                    _metrics().histogram("store.wait", store=self.name) \
                        .record(env._now - getter.requested_at)
                getter.succeed(item)
                progressed = True
        if self.name is not None:
            _metrics().gauge("store.depth", store=self.name) \
                .set(len(self.items), at=self.env.now)

    def _find(self, getter: StoreGet) -> Optional[int]:
        """Index of the first item ``getter`` accepts, or ``None``."""
        if getter.filter is None:
            return 0 if self.items else None
        for index, item in enumerate(self.items):
            if getter.filter(item):
                return index
        return None


class _Amount(Event):
    """A pending :class:`Container` put/get carrying its quantity."""

    __slots__ = ("amount",)

    def __init__(self, env: Environment, amount: float) -> None:
        super().__init__(env)
        self.amount = amount


class Container:
    """A continuous quantity with blocking put/get (e.g. buffer space)."""

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 init: float = 0.0) -> None:
        if not capacity > 0:  # also rejects NaN
            raise SimulationError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("init must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: List[_Amount] = []
        self._putters: List[_Amount] = []

    @property
    def level(self) -> float:
        """Current quantity held."""
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; fires once it fits under capacity."""
        if amount <= 0:
            raise SimulationError("amount must be positive")
        event = _Amount(self.env, amount)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self, amount: float) -> Event:
        """Remove ``amount``; fires once that much is available."""
        if amount <= 0:
            raise SimulationError("amount must be positive")
        event = _Amount(self.env, amount)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                put = self._putters[0]
                if self._level + put.amount <= self.capacity:
                    self._putters.pop(0)
                    self._level += put.amount
                    put.succeed()
                    progressed = True
            if self._getters:
                get = self._getters[0]
                if self._level >= get.amount:
                    self._getters.pop(0)
                    self._level -= get.amount
                    get.succeed()
                    progressed = True
