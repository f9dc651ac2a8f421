"""The lock table as it was before a request became one cheap call,
kept as a reference model.

``LockTable`` used to look its ``lock.wait`` histogram up by name and
label on every record, report to the sanitizer through un-gated hooks
that built their scope strings for the no-op default, refresh soft-lock
conflicts on every release whatever the style, test compatibility
with ``all(<genexpr>)`` and count through ``Counter.incr``;
``LockGrant`` had no slots.  The classes below
are that code verbatim but for where they find their observers (the
environment's, like every layer now) and two rules adopted since,
declared: a request answered at once returns an event that is already
processed (:func:`_decided`) instead of one that ``succeed()`` queues,
and a pending upgrade fails when a tickle takeover revokes its shared
grant or other code releases it (it used to be dropped, its process
left waiting forever).  So a
test can drive both tables with the same script and compare.  A
reference, not a second path — nothing under ``src/`` imports this.
"""

import itertools
from typing import Callable, Dict, List, Optional

from repro.concurrency.locks import (EXCLUSIVE, HARD, NOTIFICATION, SHARED,
                                     SOFT, STYLES, TICKLE)
from repro.errors import LockError
from repro.obs.metrics import Counter
from repro.sim import Environment, Event


def _decided(env: Environment, grant) -> Event:
    """An event already processed with ``grant``: nothing is queued."""
    event = Event(env)
    event._ok = True
    event._value = grant
    event.callbacks = None
    return event


class LockGrant:
    """A live hold on an item; returned by every successful acquire."""

    def __init__(self, table: "LockTable", key: str, owner: str,
                 mode: str, granted_at: float) -> None:
        # Grant ids come from the owning table, so they are reproducible
        # per experiment (a module-level counter would leak state across
        # experiments sharing one process).
        self.grant_id = next(table._grant_seq)
        self.table = table
        self.key = key
        self.owner = owner
        self.mode = mode
        self.granted_at = granted_at
        self.last_activity = granted_at
        self.revoked = False
        #: Set for soft locks held concurrently with a conflicting grant.
        self.conflicting = False

    def touch(self) -> None:
        """Record holder activity (defends a tickle takeover)."""
        self.last_activity = self.table.env.now

    def release(self) -> None:
        """Give the lock back."""
        self.table.release(self)

    def __repr__(self) -> str:
        return "<LockGrant {} {} by {}>".format(
            self.key, self.mode, self.owner)


class _Waiter:
    """A queued acquire (or in-place upgrade) request."""

    __slots__ = ("owner", "mode", "event", "enqueued_at", "upgrade_of",
                 "span")

    def __init__(self, owner: str, mode: str, event: Event,
                 enqueued_at: float,
                 upgrade_of: Optional[LockGrant] = None) -> None:
        self.owner = owner
        self.mode = mode
        self.event = event
        self.enqueued_at = enqueued_at
        self.upgrade_of = upgrade_of
        #: ``lock.acquire`` span covering the queued wait (tracing only).
        self.span = None


class LockTable:
    """All locks over one shared store, in one of the four styles."""

    def __init__(self, env: Environment, style: str = HARD,
                 tickle_grace: float = 2.0) -> None:
        if style not in STYLES:
            raise LockError("unknown lock style: " + style)
        if tickle_grace < 0:
            raise LockError("tickle_grace must be non-negative")
        self.env = env
        self.style = style
        self.tickle_grace = tickle_grace
        self._grant_seq = itertools.count(1)
        self._held: Dict[str, List[LockGrant]] = {}
        self._queues: Dict[str, List[_Waiter]] = {}
        self._watchers: Dict[str, List[Callable[[str, str, str], None]]] = {}
        self.counters = Counter()
        #: Called with (grant, taker) when a tickle takeover revokes a hold.
        self.on_takeover: Optional[Callable[[LockGrant, str], None]] = None
        #: Called with (grant, other_owner) when soft locks conflict.
        self.on_conflict: Optional[Callable[[LockGrant, str], None]] = None

    # -- public API ----------------------------------------------------------

    def acquire(self, key: str, owner: str, mode: str = EXCLUSIVE) -> Event:
        """Request a lock; the event fires with the LockGrant."""
        if mode not in (SHARED, EXCLUSIVE):
            raise LockError("unknown mode: " + mode)
        event = self.env.event()
        self.counters.incr("requests")
        if self.style == SOFT:
            self._grant_soft(key, owner, mode, event)
            self._record_wait(0.0)
            return _decided(self.env, event._value)
        if self.style == NOTIFICATION and mode == SHARED:
            # Readers are always admitted under notification locks.
            grant = self._install(key, owner, SHARED)
            self.counters.incr("grants")
            self._record_wait(0.0)
            return _decided(self.env, grant)
        if self._compatible(key, owner, mode):
            grant = self._install(key, owner, mode)
            self.counters.incr("grants")
            self._record_wait(0.0)
            return _decided(self.env, grant)
        if self.style == TICKLE and self._tickle(key, owner, mode, event):
            self._record_wait(0.0)
            return _decided(self.env, event._value)
        self.counters.incr("waits")
        waiter = _Waiter(owner, mode, event, self.env.now)
        self._open_wait_span(waiter, key)
        self._queues.setdefault(key, []).append(waiter)
        return event

    def release(self, grant: LockGrant) -> None:
        """Release a grant and promote compatible waiters."""
        held = self._held.get(grant.key, [])
        if grant not in held:
            raise LockError("grant is not held: {!r}".format(grant))
        held.remove(grant)
        # Hand-off edge: whoever acquires this key next is causally
        # ordered after everything the releasing holder did.
        self.env.sanitizer.release("lock:" + grant.key, grant.owner)
        flight = self.env._flight
        if flight is not None:
            flight.record_lock("release", grant.key, grant.owner,
                               grant.mode, self.style)
        self._refresh_conflicts(grant.key)
        self._promote(grant.key)

    def upgrade(self, grant: LockGrant) -> Event:
        """Convert a shared grant to exclusive without releasing it.

        Unlike release-then-reacquire, the holder keeps its shared lock
        while waiting, preserving two-phase locking (no other writer can
        slip in between).  Two concurrent upgraders therefore deadlock —
        callers (the transaction manager) detect and abort one.
        """
        if grant.mode == EXCLUSIVE:
            raise LockError("grant is already exclusive")
        held = self._held.get(grant.key, [])
        if grant not in held:
            raise LockError("grant is not held: {!r}".format(grant))
        event = self.env.event()
        others = [h for h in held if h.owner != grant.owner]
        if not others:
            grant.mode = EXCLUSIVE
            self.counters.incr("upgrades")
            self._record_wait(0.0)
            return _decided(self.env, grant)
        else:
            self.counters.incr("waits")
            # Upgraders queue at the front so no later writer overtakes.
            waiter = _Waiter(grant.owner, EXCLUSIVE, event, self.env.now,
                             upgrade_of=grant)
            self._open_wait_span(waiter, grant.key)
            self._queues.setdefault(grant.key, []).insert(0, waiter)
        return event

    def cancel_wait(self, key: str, event: Event) -> bool:
        """Withdraw a queued acquire (e.g. on deadlock abort)."""
        queue = self._queues.get(key, [])
        for waiter in queue:
            if waiter.event is event:
                queue.remove(waiter)
                self._close_wait_span(waiter, "cancelled")
                self.counters.incr("cancelled")
                return True
        return False

    def holders(self, key: str) -> List[LockGrant]:
        """Current grants on ``key``."""
        return list(self._held.get(key, []))

    def queue_length(self, key: str) -> int:
        """Requests currently waiting on ``key``."""
        return len(self._queues.get(key, []))

    def is_held(self, key: str) -> bool:
        return bool(self._held.get(key))

    def watch(self, key: str,
              callback: Callable[[str, str, str], None]) -> None:
        """Notification locks: subscribe to writes on ``key``.

        The callback receives ``(key, writer, kind)``.
        """
        self._watchers.setdefault(key, []).append(callback)

    def notify_write(self, key: str, writer: str) -> int:
        """Notification-lock write signal; returns watchers notified."""
        notified = 0
        for callback in self._watchers.get(key, []):
            callback(key, writer, "write")
            notified += 1
        # Shared holders other than the writer also learn of the change.
        for grant in self._held.get(key, []):
            if grant.mode == SHARED and grant.owner != writer:
                notified += 1
        if notified:
            self.counters.incr("notifications", notified)
        return notified

    # -- internals -------------------------------------------------------------

    def _open_wait_span(self, waiter: _Waiter, key: str) -> None:
        """Open a ``lock.acquire`` span covering a queued wait.

        Immediate grants are not spanned (they would all be zero-width);
        the contended tail is what the sim-time profiler's flame graph
        needs to show.  The span parents under the requesting process's
        actor span when the process was named (``env.process(name=...)``),
        so per-actor profiles attribute lock waits to their actor.
        """
        tracer = self.env.tracer
        if not tracer.enabled:
            return
        waiter.span = tracer.start_span(
            "lock.acquire", at=self.env.now,
            parent=getattr(self.env.active_process, "span", None),
            key=key, owner=waiter.owner, mode=waiter.mode,
            style=self.style)

    def _close_wait_span(self, waiter: _Waiter, status: str = "ok") -> None:
        if waiter.span is not None:
            if status != "ok":
                waiter.span.set_status(status)
            waiter.span.finish(at=self.env.now)

    def _record_wait(self, waited: float) -> None:
        """Feed the acquire→grant delay into the metrics registry.

        Immediate grants record 0.0 so the histogram reflects the full
        distribution, not just the contended tail.
        """
        self.env.metrics.histogram("lock.wait", style=self.style) \
            .record(waited)

    def _compatible(self, key: str, owner: str, mode: str) -> bool:
        holders = self._held.get(key, [])
        if not holders:
            return True
        if self.style == NOTIFICATION:
            # Writers exclude only other owners' writers.
            return all(h.mode == SHARED or h.owner == owner
                       for h in holders)
        if mode == SHARED:
            return all(h.mode == SHARED for h in holders)
        return all(h.owner == owner for h in holders)

    def _install(self, key: str, owner: str, mode: str) -> LockGrant:
        self.env.sanitizer.acquire("lock:" + key, owner)
        grant = LockGrant(self, key, owner, mode, self.env.now)
        self._held.setdefault(key, []).append(grant)
        flight = self.env._flight
        if flight is not None:
            flight.record_lock(
                "grant", key, owner, mode, self.style,
                span=getattr(self.env.active_process, "span", None))
        return grant

    def _grant_soft(self, key: str, owner: str, mode: str,
                    event: Event) -> None:
        grant = self._install(key, owner, mode)
        self.counters.incr("grants")
        self._refresh_conflicts(key)
        event._value = grant

    def _refresh_conflicts(self, key: str) -> None:
        if self.style != SOFT:
            return
        holders = self._held.get(key, [])
        writers = [h for h in holders if h.mode == EXCLUSIVE]
        conflicted = len(writers) > 1 or (writers and len(holders) > 1)
        for holder in holders:
            newly = conflicted and not holder.conflicting
            holder.conflicting = conflicted
            if newly:
                self.counters.incr("conflicts")
                if self.on_conflict is not None:
                    others = [h.owner for h in holders if h is not holder]
                    self.on_conflict(holder,
                                     others[0] if others else "")

    def _tickle(self, key: str, owner: str, mode: str,
                event: Event) -> bool:
        """Attempt a tickle takeover; True if the lock transferred."""
        holders = self._held.get(key, [])
        now = self.env.now
        if not holders:
            return False
        if all(now - h.last_activity >= self.tickle_grace for h in holders):
            flight = self.env._flight
            for holder in list(holders):
                holder.revoked = True
                holders.remove(holder)
                # A takeover is a forced hand-off: the taker is ordered
                # after the revoked holder's work so far.
                self.env.sanitizer.release("lock:" + key, holder.owner)
                if flight is not None:
                    flight.record_lock("revoke", key, holder.owner,
                                       holder.mode, self.style)
                if self.on_takeover is not None:
                    self.on_takeover(holder, owner)
            queue = self._queues.get(key, [])
            for waiter in list(queue):
                if waiter.upgrade_of is not None \
                        and waiter.upgrade_of.revoked:
                    queue.remove(waiter)
                    self._close_wait_span(waiter, "revoked")
                    waiter.event.fail(LockError(
                        "{}'s shared lock on {} was taken over by {} while "
                        "it waited to upgrade".format(waiter.owner, key,
                                                      owner)))
            grant = self._install(key, owner, mode)
            self.counters.incr("grants")
            self.counters.incr("takeovers")
            event._value = grant
            return True
        return False

    def _promote(self, key: str) -> None:
        queue = self._queues.get(key, [])
        while queue:
            waiter = queue[0]
            if waiter.upgrade_of is not None:
                held = self._held.get(key, [])
                if waiter.upgrade_of not in held:
                    # The underlying grant was released while waiting.
                    queue.pop(0)
                    self._close_wait_span(waiter, "cancelled")
                    waiter.event.fail(LockError(
                        "{}'s shared lock on {} was released while it "
                        "waited to upgrade".format(waiter.owner, key)))
                    continue
                if any(h.owner != waiter.owner for h in held):
                    break
                queue.pop(0)
                waiter.upgrade_of.mode = EXCLUSIVE
                self.counters.incr("upgrades")
                self._record_wait(self.env.now - waiter.enqueued_at)
                self._close_wait_span(waiter)
                waiter.event.succeed(waiter.upgrade_of)
                continue
            if not self._compatible(key, waiter.owner, waiter.mode):
                break
            queue.pop(0)
            grant = self._install(key, waiter.owner, waiter.mode)
            self.counters.incr("grants")
            self._record_wait(self.env.now - waiter.enqueued_at)
            self._close_wait_span(waiter)
            waiter.event.succeed(grant)
