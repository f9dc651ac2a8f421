"""Transaction groups (Skarra & Zdonik), §4.2.1.

The paper: *"Skarra and Zdonik have introduced the concept of a
transaction group which co-ordinates access to shared data for a number of
co-operating members.  Within a transaction group, the notion of
serialisability is replaced by access rules based on the semantics of the
cooperation.  Access rules provide the policy of cooperation and these
policies can be tailored for a particular application by amending the
access rules."*

A :class:`TransactionGroup` wraps a shared store.  Members' writes are
*group-visible immediately* when the group's access rule permits it and
only published outside the group at commit.  The rule is a pluggable
policy object — three canonical policies are provided, and applications
tailor behaviour by supplying their own.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConcurrencyError
from repro.concurrency.store import SharedStore
from repro.obs.metrics import Counter
from repro.sim import Environment, Event

READ = "read"
WRITE = "write"


class AccessRule:
    """The policy of cooperation: which concurrent accesses may overlap.

    ``permits(requester, op, key, holders)`` sees the current holders of
    ``key`` as ``(member, op)`` pairs and decides whether the new access
    may proceed now (True) or must wait (False).
    """

    name = "custom"

    def __init__(self, predicate: Callable[
            [str, str, str, List[Tuple[str, str]]], bool],
            name: str = "custom") -> None:
        self._predicate = predicate
        self.name = name

    def permits(self, requester: str, op: str, key: str,
                holders: List[Tuple[str, str]]) -> bool:
        return self._predicate(requester, op, key, holders)


def serialisable_rule() -> AccessRule:
    """The classical policy: conflicting accesses never overlap.

    Readers exclude writers; a writer excludes everyone else.  This is the
    Figure 2a baseline expressed as an access rule.
    """
    def predicate(requester, op, key, holders):
        others = [(m, o) for m, o in holders if m != requester]
        if not others:
            return True
        if op == READ:
            return all(o == READ for _, o in others)
        return False

    return AccessRule(predicate, name="serialisable")


def cooperative_rule() -> AccessRule:
    """Reader-follows-writer: uncommitted state is readable group-wide.

    Concurrent writers on one key are still excluded (the group relies on
    a social protocol for write turn-taking), but any member may read
    another member's in-progress work — the "read over their shoulder"
    interaction the paper uses as its co-authoring example.
    """
    def predicate(requester, op, key, holders):
        others = [(m, o) for m, o in holders if m != requester]
        if op == READ:
            return True
        return all(o == READ for _, o in others)

    return AccessRule(predicate, name="cooperative")


def free_rule() -> AccessRule:
    """No restrictions at all (the social protocol carries everything)."""
    return AccessRule(lambda *args: True, name="free")


class _Pending:
    __slots__ = ("member", "op", "key", "event", "since", "value")

    def __init__(self, member: str, op: str, key: str, event: Event,
                 since: float, value: Any = None) -> None:
        self.member = member
        self.op = op
        self.key = key
        self.event = event
        self.since = since
        self.value = value


class TransactionGroup:
    """A group of cooperating members over one shared store."""

    def __init__(self, env: Environment, store: SharedStore,
                 rule: Optional[AccessRule] = None,
                 name: str = "group") -> None:
        self.env = env
        self.store = store
        self.rule = rule or cooperative_rule()
        self.name = name
        self.members: List[str] = []
        #: key -> list of (member, op) current accesses.
        self._holders: Dict[str, List[Tuple[str, str]]] = {}
        self._waiting: List[_Pending] = []
        #: Group-visible uncommitted writes.
        self._uncommitted: Dict[str, Tuple[Any, str]] = {}
        self.counters = Counter()
        self.committed = False

    def add_member(self, member: str) -> None:
        """Admit a member to the group."""
        if member in self.members:
            raise ConcurrencyError(
                "{} is already in group {}".format(member, self.name))
        self.members.append(member)

    # -- data access -------------------------------------------------------

    def read(self, member: str, key: str) -> Event:
        """Request a read; fires with the group-visible value."""
        self._check_member(member)
        event = self.env.event()
        self._request(member, READ, key, event)
        return event

    def write(self, member: str, key: str, value: Any) -> Event:
        """Request a write; fires when the access rule admits it."""
        self._check_member(member)
        event = self.env.event()
        self._request(member, WRITE, key, event, value=value)
        return event

    def release(self, member: str, key: str, op: str) -> None:
        """End an access, letting waiting requests re-evaluate."""
        holders = self._holders.get(key, [])
        if (member, op) not in holders:
            raise ConcurrencyError(
                "{} holds no {} access on {}".format(member, op, key))
        holders.remove((member, op))
        self._drain()

    def commit(self) -> None:
        """Publish all uncommitted writes to the outside world."""
        for key, (value, writer) in self._uncommitted.items():
            self.store.write(key, value, writer=writer, at=self.env.now)
        self._uncommitted.clear()
        self.committed = True
        self.counters.incr("commits")

    def group_value(self, key: str, reader: str = "") -> Any:
        """The value a member sees: uncommitted if present, else store.

        A read of the store is recorded as ``reader``'s, now.
        """
        if key in self._uncommitted:
            return self._uncommitted[key][0]
        if key in self.store:
            return self.store.read(key, reader=reader, at=self.env.now)
        return None

    # -- internals -----------------------------------------------------------

    def _check_member(self, member: str) -> None:
        if member not in self.members:
            raise ConcurrencyError(
                "{} is not a member of {}".format(member, self.name))

    def _request(self, member: str, op: str, key: str, event: Event,
                 value: Any = None) -> None:
        self.counters.incr("requests")
        holders = self._holders.setdefault(key, [])
        if self.rule.permits(member, op, key, list(holders)):
            self._grant(member, op, key, event, value)
        else:
            self.counters.incr("blocked")
            self._waiting.append(
                _Pending(member, op, key, event, self.env.now, value))

    def _grant(self, member: str, op: str, key: str, event: Event,
               value: Any) -> None:
        holders_before = list(self._holders.get(key, []))
        self._holders.setdefault(key, []).append((member, op))
        self.counters.incr("grants")
        if op == WRITE:
            self._uncommitted[key] = (value, member)
            event.succeed(value)
            return
        # A read admitted while another member is actively writing the
        # item is a cooperative interleaving ("reading over the
        # shoulder") that serialisability would have forbidden.
        overlapping_writer = any(
            m != member and o == WRITE for m, o in holders_before)
        if overlapping_writer and key in self._uncommitted \
                and self._uncommitted[key][1] != member:
            self.counters.incr("cooperative_reads")
        event.succeed(self.group_value(key, reader=member))

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for pending in list(self._waiting):
                holders = self._holders.setdefault(pending.key, [])
                if self.rule.permits(pending.member, pending.op,
                                     pending.key, list(holders)):
                    self._waiting.remove(pending)
                    self._grant(pending.member, pending.op, pending.key,
                                pending.event, pending.value)
                    progressed = True
