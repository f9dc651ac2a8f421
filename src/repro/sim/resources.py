"""The queueing primitive the middleware's traffic uses.

:class:`Store` is an unbounded FIFO of items: host and reliable-channel
inboxes, group delivery queues and a group call's replies.  A link's
transmission channel is the link's own timeline of bookings
(:class:`~repro.net.link.Channel`), not a kernel primitive.
"""

from __future__ import annotations

from typing import Any, List

from repro.sim.events import Event
from repro.sim.environment import Environment


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
        there is no acceptance for anybody to wait on.  A take somebody
        waits on gets the item in the call (:meth:`_serve`).
        """
        self.items.append(item)
        if self._getters:
            self._serve()

    def get(self) -> StoreGet:
        """Take the oldest item; fires when one is available."""
        return StoreGet(self)

    def _serve(self) -> None:
        """Hand the oldest items to the oldest takes, in the call.

        A take somebody waits on runs its waiter here; each pair leaves
        both lists before it is handed over, so a waiter that takes again
        inside its hand-off queues behind the takes already waiting.
        """
        getters, items = self._getters, self.items
        while getters and items:
            getters.pop(0).resolve(items.pop(0))
