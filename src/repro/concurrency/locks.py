"""Lock styles for group work: hard, tickle, soft and notification locks.

§4.2.1 of the paper: *"a number of researchers have proposed alternative
styles of locking to increase the flexibility of transaction mechanisms,
e.g. tickle locks [Greif & Sarin], soft locks [Cognoter] and notification
locks [Hornick & Zdonik]"*.  This module implements all four styles over
one lock table so experiment E3 can sweep them against the same workload:

* **hard** — classic blocking locks (shared/exclusive compatibility, FIFO
  queue); the transaction baseline builds on these.
* **tickle** — a blocked requester "tickles" the holder; if the holder has
  been idle longer than a grace period the lock transfers immediately,
  otherwise the requester waits.  Holders are notified of takeovers.
* **soft** — advisory: acquisition always succeeds instantly; conflicting
  holders are flagged to each other so the *social protocol* resolves it.
* **notification** — writers exclude only writers; readers are always
  admitted and subscribe to change notifications ("reading over the
  shoulder").
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.errors import LockError
from repro.obs.metrics import Counter, Tally
from repro.sim import Environment, Event


SHARED = "shared"
EXCLUSIVE = "exclusive"

HARD = "hard"
TICKLE = "tickle"
SOFT = "soft"
NOTIFICATION = "notification"

STYLES = (HARD, TICKLE, SOFT, NOTIFICATION)


def _decided(env: Environment, grant: "LockGrant") -> Event:
    """A request answered in the call: processed, holding ``grant``."""
    event = Event(env)
    event._ok, event._value, event.callbacks = True, grant, None
    return event


class LockGrant:
    """A live hold on an item; returned by every successful acquire."""

    __slots__ = ("grant_id", "table", "key", "owner", "mode", "granted_at",
                 "last_activity", "revoked", "conflicting")

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
            raise LockError("style must be one of {}, not {!r}".format(
                ", ".join(STYLES), style))
        if not tickle_grace >= 0:
            # NaN passes ``< 0``, and ``idle >= nan`` is never true: no
            # takeover would ever fire.
            raise LockError("tickle_grace must be non-negative, not "
                            "{!r}".format(tickle_grace))
        self.env = env
        self.style = style
        self.tickle_grace = tickle_grace
        self._grant_seq = itertools.count(1)
        self._held: Dict[str, List[LockGrant]] = {}
        self._queues: Dict[str, List[_Waiter]] = {}
        self._watchers: Dict[str, List[Callable[[str, str, str], None]]] = {}
        # Outcome counts; a plain dict, since a method call per count
        # costs more than the count (``counters`` reads them).
        self._counts: Dict[str, int] = {}
        # lock.wait{style} of env.metrics, made at the first record and
        # kept (docs/performance.md "Kept instruments").
        self._wait: Optional[Tally] = None
        #: Called with (grant, taker) when a tickle takeover revokes a hold.
        self.on_takeover: Optional[Callable[[LockGrant, str], None]] = None
        #: Called with (grant, other_owner) when soft locks conflict.
        self.on_conflict: Optional[Callable[[LockGrant, str], None]] = None

    @property
    def counters(self) -> Counter:
        """``requests``, ``grants``, ``waits``, ``takeovers``, … so far
        (a count that is zero is absent and reads as 0)."""
        counters = Counter()
        for key, count in self._counts.items():
            counters.incr(key, count)
        return counters

    # -- public API ----------------------------------------------------------

    def acquire(self, key: str, owner: str, mode: str = EXCLUSIVE) -> Event:
        """Request a lock; the event fires with the LockGrant.

        A request the table can answer at once returns an event that is
        already processed and holds the grant, and queues nothing: a
        process that yields it continues before anything else queued for
        this instant (docs/performance.md "A free lock is granted in the
        call").
        """
        if mode not in (SHARED, EXCLUSIVE):
            raise LockError("mode must be {!r} or {!r}, not {!r}".format(
                SHARED, EXCLUSIVE, mode))
        counts = self._counts
        counts["requests"] = counts.get("requests", 0) + 1
        style = self.style
        # Soft locks always succeed; readers are always admitted under
        # notification locks.
        if not (style == SOFT or (style == NOTIFICATION and mode == SHARED)
                or self._compatible(key, owner, mode)):
            if style != TICKLE or not self._tickle(key, owner):
                counts["waits"] = counts.get("waits", 0) + 1
                event = self.env.event()
                waiter = _Waiter(owner, mode, event, self.env.now)
                self._open_wait_span(waiter, key)
                self._queues.setdefault(key, []).append(waiter)
                return event
            counts["takeovers"] = counts.get("takeovers", 0) + 1
        grant = self._install(key, owner, mode)
        counts["grants"] = counts.get("grants", 0) + 1
        if style == SOFT:
            self._refresh_conflicts(key)
        self._record_wait(0.0)
        return _decided(self.env, grant)

    def release(self, grant: LockGrant) -> None:
        """Release a grant and promote compatible waiters."""
        held = self._held.get(grant.key, [])
        if grant not in held:
            raise LockError("grant is not held: {!r}".format(grant))
        held.remove(grant)
        # Hand-off edge: whoever acquires this key next is causally
        # ordered after everything the releasing holder did.
        sanitizer = self.env.sanitizer
        if sanitizer.enabled:
            sanitizer.release("lock:" + grant.key, grant.owner)
        flight = self.env._flight
        if flight is not None:
            flight.record_lock("release", grant.key, grant.owner,
                               grant.mode, self.style)
        if self.style == SOFT:
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
        if all(h.owner == grant.owner for h in held):
            grant.mode = EXCLUSIVE
            self._counts["upgrades"] = self._counts.get("upgrades", 0) + 1
            self._record_wait(0.0)
            return _decided(self.env, grant)
        self._counts["waits"] = self._counts.get("waits", 0) + 1
        # Upgraders queue at the front so no later writer overtakes.
        event = self.env.event()
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
                self._counts["cancelled"] = \
                    self._counts.get("cancelled", 0) + 1
                return True
        return False

    def holders(self, key: str) -> List[LockGrant]:
        """Current grants on ``key``."""
        return list(self._held.get(key, []))

    def queue_length(self, key: str) -> int:
        """Requests currently waiting on ``key``."""
        return len(self._queues.get(key, []))

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
            self._counts["notifications"] = \
                self._counts.get("notifications", 0) + notified
        return notified

    # -- internals -------------------------------------------------------------

    def _open_wait_span(self, waiter: _Waiter, key: str) -> None:
        """Open a ``lock.acquire`` span covering a queued wait (immediate
        grants would all be zero-width), parented under the requesting
        process's actor span when it was named (``env.process(name=)``)."""
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
        """Feed the acquire→grant delay into the metrics registry
        (immediate grants record 0.0: the whole distribution)."""
        wait = self._wait
        if wait is None:
            wait = self._wait = self.env.metrics.histogram(
                "lock.wait", style=self.style)
        wait.record(waited)

    def _compatible(self, key: str, owner: str, mode: str) -> bool:
        holders = self._held.get(key)
        if not holders:
            return True
        if self.style == NOTIFICATION:
            # Writers exclude only other owners' writers.
            for holder in holders:
                if holder.mode != SHARED and holder.owner != owner:
                    return False
            return True
        if mode == SHARED:
            for holder in holders:
                if holder.mode != SHARED:
                    return False
            return True
        for holder in holders:
            if holder.owner != owner:
                return False
        return True

    def _install(self, key: str, owner: str, mode: str) -> LockGrant:
        sanitizer = self.env.sanitizer
        if sanitizer.enabled:
            sanitizer.acquire("lock:" + key, owner)
        grant = LockGrant(self, key, owner, mode, self.env.now)
        self._held.setdefault(key, []).append(grant)
        flight = self.env._flight
        if flight is not None:
            flight.record_lock(
                "grant", key, owner, mode, self.style,
                span=getattr(self.env.active_process, "span", None))
        return grant

    def _refresh_conflicts(self, key: str) -> None:
        """Soft locks only: flag holders that now conflict."""
        holders = self._held.get(key, [])
        writers = [h for h in holders if h.mode == EXCLUSIVE]
        conflicted = len(writers) > 1 or (writers and len(holders) > 1)
        for holder in holders:
            newly = conflicted and not holder.conflicting
            holder.conflicting = conflicted
            if newly:
                self._counts["conflicts"] = \
                    self._counts.get("conflicts", 0) + 1
                if self.on_conflict is not None:
                    others = [h.owner for h in holders if h is not holder]
                    self.on_conflict(holder,
                                     others[0] if others else "")

    def _tickle(self, key: str, taker: str) -> bool:
        """Revoke every holder of ``key`` if all have been idle for the
        grace period; an upgrade one of them waits for fails."""
        holders = self._held.get(key)
        now = self.env.now
        if not holders or not all(now - h.last_activity >= self.tickle_grace
                                  for h in holders):
            return False
        flight = self.env._flight
        sanitizer = self.env.sanitizer
        for holder in list(holders):
            holder.revoked = True
            holders.remove(holder)
            # A takeover is a forced hand-off: the taker is ordered
            # after the revoked holder's work so far.
            if sanitizer.enabled:
                sanitizer.release("lock:" + key, holder.owner)
            if flight is not None:
                flight.record_lock("revoke", key, holder.owner,
                                   holder.mode, self.style)
            if self.on_takeover is not None:
                self.on_takeover(holder, taker)
        queue = self._queues.get(key, [])
        for waiter in [w for w in queue
                       if w.upgrade_of is not None and w.upgrade_of.revoked]:
            queue.remove(waiter)
            self._close_wait_span(waiter, "revoked")
            waiter.event.fail(LockError(
                "{}'s shared lock on {} was taken over by {} while it "
                "waited to upgrade".format(waiter.owner, key, taker)))
        return True

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
                self._counts["upgrades"] = self._counts.get("upgrades", 0) + 1
                self._record_wait(self.env.now - waiter.enqueued_at)
                self._close_wait_span(waiter)
                waiter.event.succeed(waiter.upgrade_of)
                continue
            if not self._compatible(key, waiter.owner, waiter.mode):
                break
            queue.pop(0)
            grant = self._install(key, waiter.owner, waiter.mode)
            self._counts["grants"] = self._counts.get("grants", 0) + 1
            self._record_wait(self.env.now - waiter.enqueued_at)
            self._close_wait_span(waiter)
            waiter.event.succeed(grant)
