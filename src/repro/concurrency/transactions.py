"""Serialisable atomic transactions: the classical baseline of Figure 2a.

Strict two-phase locking over a :class:`~repro.concurrency.store.SharedStore`
with private write workspaces: a transaction's writes are invisible to every
other user until commit — exactly the "walls between users" the paper
criticises.  Deadlocks are detected on a wait-for graph and resolved by
aborting the requester.

Experiment F2 measures the consequence: *notification time* (when other
users learn of a change) is unbounded-until-commit here, versus continuous
under the awareness-oriented mechanisms.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

from repro.errors import TransactionAborted
from repro.concurrency.locks import (
    EXCLUSIVE,
    HARD,
    LockGrant,
    LockTable,
    SHARED,
)
from repro.concurrency.store import SharedStore
from repro.obs.metrics import Counter
from repro.sim import Environment

ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"


class Transaction:
    """One atomic unit of work by one user."""

    def __init__(self, txn_id: str, owner: str, started_at: float) -> None:
        #: Also the owner of the transaction's locks, so it is numbered
        #: by its manager: a run's lock order must not depend on what
        #: ran before it in the process.
        self.txn_id = txn_id
        self.owner = owner
        self.started_at = started_at
        self.state = ACTIVE
        self.grants: Dict[str, LockGrant] = {}
        self.workspace: Dict[str, Any] = {}
        self.read_set: Set[str] = set()

    @property
    def is_active(self) -> bool:
        return self.state == ACTIVE

    def __repr__(self) -> str:
        return "<Transaction {} by {} [{}]>".format(
            self.txn_id, self.owner, self.state)


class TransactionManager:
    """Begin/read/write/commit/abort with strict 2PL."""

    def __init__(self, env: Environment, store: SharedStore) -> None:
        self.env = env
        self.store = store
        self.locks = LockTable(env, style=HARD)
        self.counters = Counter()
        self._active: Dict[str, Transaction] = {}
        #: txn_id -> set of txn_ids it currently waits for.
        self._wait_for: Dict[str, Set[str]] = {}
        #: key -> list of txns holding a lock on it (for wait edges).
        self._lock_owner_txns: Dict[str, List[Transaction]] = {}
        self._begun = 0

    def begin(self, owner: str) -> Transaction:
        """Start a transaction for ``owner``."""
        self._begun += 1
        txn = Transaction("txn-{}".format(self._begun), owner, self.env.now)
        self._active[txn.txn_id] = txn
        self.counters.incr("begun")
        return txn

    def read(self, txn: Transaction, key: str):
        """Read ``key`` under a shared lock (generator; yields sim events).

        Returns the committed value, or the transaction's own pending
        write if it has one.
        """
        self._check_active(txn)
        yield from self._lock(txn, key, SHARED)
        txn.read_set.add(key)
        if key in txn.workspace:
            return txn.workspace[key]
        if key in self.store:
            return self.store.read(key, reader=txn.owner, at=self.env.now)
        return None

    def write(self, txn: Transaction, key: str, value: Any):
        """Write ``key`` under an exclusive lock, privately until commit."""
        self._check_active(txn)
        yield from self._lock(txn, key, EXCLUSIVE)
        txn.workspace[key] = value

    def commit(self, txn: Transaction):
        """Publish the workspace atomically and release all locks."""
        self._check_active(txn)
        for key, value in txn.workspace.items():
            self.store.write(key, value, writer=txn.owner, at=self.env.now)
        txn.state = COMMITTED
        self._release_all(txn)
        self.counters.incr("committed")
        return
        yield  # pragma: no cover - keeps commit usable with yield from

    def abort(self, txn: Transaction, reason: str = "explicit") -> None:
        """Discard the workspace and release all locks."""
        if txn.state != ACTIVE:
            return
        txn.state = ABORTED
        txn.workspace.clear()
        self._release_all(txn)
        self.counters.incr("aborted")
        self.counters.incr("aborted:" + reason)

    # -- internals -------------------------------------------------------------

    def _check_active(self, txn: Transaction) -> None:
        if not txn.is_active:
            raise TransactionAborted(
                "{} is {}".format(txn.txn_id, txn.state))

    def _lock(self, txn: Transaction, key: str, mode: str):
        existing = txn.grants.get(key)
        if existing is not None:
            if mode == SHARED or existing.mode == EXCLUSIVE:
                return
            # In-place upgrade: keep the shared lock while waiting so no
            # other writer can interleave (preserves two-phase locking).
            event = self.locks.upgrade(existing)
        else:
            event = self.locks.acquire(key, txn.txn_id, mode)
        if not event.triggered:
            blockers = self._blocking_txns(txn, key)
            self._wait_for[txn.txn_id] = blockers
            if self._creates_cycle(txn.txn_id):
                self.locks.cancel_wait(key, event)
                event.defuse()
                self._wait_for.pop(txn.txn_id, None)
                self.counters.incr("deadlocks")
                self.abort(txn, reason="deadlock")
                raise TransactionAborted(
                    "deadlock: {} aborted requesting {}".format(
                        txn.txn_id, key))
            grant = yield event
            self._wait_for.pop(txn.txn_id, None)
        else:
            grant = event.value
        if txn.grants.get(key) is not grant:
            txn.grants[key] = grant
            self._lock_owner_txns.setdefault(key, []).append(txn)

    def _forget_lock(self, txn: Transaction, key: str) -> None:
        txn.grants.pop(key, None)
        owners = self._lock_owner_txns.get(key, [])
        if txn in owners:
            owners.remove(txn)

    def _release_all(self, txn: Transaction) -> None:
        for key, grant in list(txn.grants.items()):
            self.locks.release(grant)
            self._forget_lock(txn, key)
        self._wait_for.pop(txn.txn_id, None)

    def _blocking_txns(self, txn: Transaction, key: str) -> Set[str]:
        return {holder.txn_id
                for holder in self._lock_owner_txns.get(key, [])
                if holder.is_active and holder is not txn}

    def _creates_cycle(self, start: str) -> bool:
        """DFS over the wait-for graph looking for a cycle through start."""
        stack = list(self._wait_for.get(start, ()))
        seen: Set[str] = set()
        while stack:
            node = stack.pop()
            if node == start:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._wait_for.get(node, ()))
        return False
