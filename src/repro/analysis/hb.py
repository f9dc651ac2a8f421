"""The happens-before conflict sanitizer.

The paper's §4.2.1 point is that atomic transactions *prevent* conflict
by walling users off from each other, where cooperative work needs the
conflict *surfaced* so a social protocol can resolve it.  The sanitizer
makes that residue measurable: it tracks a vector clock per actor,
threads happens-before edges through the mechanisms that legitimately
order accesses — lock grant hand-offs, floor possession, causally
delivered messages (RPC headers) — and records every read/write of a
shared object.  Two accesses to the same object, at least one a write,
whose clocks are concurrent were ordered by *nothing*: they are exactly
the conflicts left for the humans.

Like the tracer and the metrics registry, the process default is a
no-op so instrumentation sites cost almost nothing; a run
(:func:`repro.run.run`) scopes a fresh one, as any simulation can.  An
environment built inside the scope keeps it as ``env.sanitizer``::

    from repro import analysis

    with analysis.use_sanitizer(analysis.ConflictSanitizer()) as sanitizer:
        ... build and run a simulation ...
    print(sanitizer.summary())

Hooks live in :mod:`repro.concurrency.locks` (grant hand-off edges),
:mod:`repro.concurrency.store` (accesses), :mod:`repro.sessions.floor`
(floor possession edges) and :mod:`repro.net.transport` (clock
propagation in RPC headers, :meth:`ConflictSanitizer.inject_clock` /
:meth:`~ConflictSanitizer.extract_clock`).
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, List, Optional, TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.groups.clocks import VectorClock

#: Resolved lazily: importing :mod:`repro.groups` here would close an
#: import cycle (locks -> hb -> groups -> group -> transport -> hb), so
#: the class is fetched on first sanitizer use instead.
_vector_clock_class = None


def _clock_class():
    global _vector_clock_class
    if _vector_clock_class is None:
        from repro.groups.clocks import VectorClock as cls
        _vector_clock_class = cls
    return _vector_clock_class

#: Access kinds.
READ = "read"
WRITE = "write"

#: Packet-header key carrying a vector-clock snapshot.
HB_HEADER = "hb-clock"

#: Conflict kinds.
WRITE_WRITE = "write-write"
READ_WRITE = "read-write"


class Access:
    """One recorded read or write of a shared object."""

    __slots__ = ("obj", "actor", "kind", "at", "clock")

    def __init__(self, obj: str, actor: str, kind: str, at: float,
                 clock: "VectorClock") -> None:
        self.obj = obj
        self.actor = actor
        self.kind = kind
        self.at = at
        self.clock = clock

    def to_dict(self) -> Dict[str, Any]:
        return {"obj": self.obj, "actor": self.actor, "kind": self.kind,
                "at": self.at, "clock": self.clock.as_dict()}

    def __repr__(self) -> str:
        return "<Access {} {} by {} at {:.6g}>".format(
            self.kind, self.obj, self.actor, self.at)


class Conflict:
    """Two concurrent, conflicting accesses no mechanism ordered."""

    __slots__ = ("obj", "kind", "first", "second")

    def __init__(self, obj: str, kind: str, first: Access,
                 second: Access) -> None:
        self.obj = obj
        self.kind = kind
        self.first = first
        self.second = second

    @property
    def actors(self) -> List[str]:
        return [self.first.actor, self.second.actor]

    def to_dict(self) -> Dict[str, Any]:
        return {"obj": self.obj, "kind": self.kind,
                "first": self.first.to_dict(),
                "second": self.second.to_dict()}

    def __repr__(self) -> str:
        return "<Conflict {} on {}: {} vs {}>".format(
            self.kind, self.obj, self.first.actor, self.second.actor)


class ConflictSanitizer:
    """Vector-clock happens-before tracking over shared-object accesses.

    The tracker follows the classic FastTrack shape: per object it keeps
    the last write and the set of reads since that write, and compares
    each incoming access against them.  Ordering edges arrive through
    three channels:

    * :meth:`acquire` / :meth:`release` — possession hand-off (a lock
      grant or the session floor).  Releasing merges the releaser's
      clock into the scope; acquiring merges the scope into the
      acquirer, so successive critical sections are causally ordered.
    * :meth:`send` / :meth:`receive` — message causality (RPC request /
      response headers, causal multicast).
    * Every recorded access ticks its actor's own component.
    """

    enabled = True

    def __init__(self) -> None:
        self._clocks: Dict[str, VectorClock] = {}
        self._scopes: Dict[str, VectorClock] = {}
        self._last_write: Dict[str, Access] = {}
        self._reads: Dict[str, Dict[str, Access]] = {}
        self.accesses: List[Access] = []
        self.conflicts: List[Conflict] = []

    # -- clock plumbing ----------------------------------------------------

    def clock(self, actor: str) -> "VectorClock":
        """The actor's current clock (empty if never seen)."""
        existing = self._clocks.get(actor)
        return existing if existing is not None else _clock_class()()

    def _tick(self, actor: str) -> VectorClock:
        advanced = self.clock(actor).increment(actor)
        self._clocks[actor] = advanced
        return advanced

    # -- happens-before edges ----------------------------------------------

    def local(self, actor: str) -> None:
        """Record an internal event (advances the actor's clock)."""
        self._tick(actor)

    def send(self, actor: str) -> Dict[str, int]:
        """Tick and snapshot the clock for attachment to a message."""
        return self._tick(actor).as_dict()

    def receive(self, actor: str, clock: Optional[Dict[str, int]]) -> None:
        """Merge a received clock snapshot (causal-delivery edge)."""
        if clock:
            merged = self.clock(actor).merge(_clock_class()(clock))
            self._clocks[actor] = merged
        self._tick(actor)

    def acquire(self, scope: str, actor: str) -> None:
        """Order ``actor`` after every previous release of ``scope``.

        ``scope`` names the ordering mechanism instance — a lock key
        (``"lock:section"``) or a floor (``"floor:fcfs"``).
        """
        released = self._scopes.get(scope)
        if released is not None:
            self._clocks[actor] = self.clock(actor).merge(released)
        self._tick(actor)

    def release(self, scope: str, actor: str) -> None:
        """Publish ``actor``'s causal history into ``scope``."""
        clock = self._tick(actor)
        held = self._scopes.get(scope)
        self._scopes[scope] = clock if held is None else held.merge(clock)

    def inject_clock(self, headers: Dict[str, Any],
                     actor: str) -> Dict[str, Any]:
        """Attach ``actor``'s clock snapshot to message ``headers``."""
        headers[HB_HEADER] = self.send(actor)
        return headers

    def extract_clock(self, headers: Dict[str, Any], actor: str) -> None:
        """Merge a clock snapshot out of received ``headers`` (if any)."""
        clock = headers.get(HB_HEADER)
        if clock is not None:
            self.receive(actor, clock)

    # -- accesses ----------------------------------------------------------

    def on_read(self, obj: str, actor: str, at: float = 0.0) -> None:
        """Record a read; conflicts against an unordered last write."""
        access = Access(obj, actor, READ, at, self._tick(actor))
        self.accesses.append(access)
        last_write = self._last_write.get(obj)
        if self._conflicts_with(last_write, access):
            self._report(READ_WRITE, last_write, access)
        self._reads.setdefault(obj, {})[actor] = access

    def on_write(self, obj: str, actor: str, at: float = 0.0) -> None:
        """Record a write; conflicts against unordered writes and reads."""
        access = Access(obj, actor, WRITE, at, self._tick(actor))
        self.accesses.append(access)
        last_write = self._last_write.get(obj)
        if self._conflicts_with(last_write, access):
            self._report(WRITE_WRITE, last_write, access)
        for reader, read in self._reads.get(obj, {}).items():
            if self._conflicts_with(read, access):
                self._report(READ_WRITE, read, access)
        self._last_write[obj] = access
        self._reads[obj] = {}

    def _conflicts_with(self, earlier: Optional[Access],
                        later: Access) -> bool:
        return (earlier is not None
                and earlier.actor != later.actor
                and earlier.clock.concurrent_with(later.clock))

    def _report(self, kind: str, first: Access, second: Access) -> None:
        self.conflicts.append(Conflict(first.obj, kind, first, second))

    # -- reporting ---------------------------------------------------------

    def conflict_counts(self) -> Dict[str, int]:
        """Conflicts by kind (plus ``"total"``)."""
        counts = {WRITE_WRITE: 0, READ_WRITE: 0}
        for conflict in self.conflicts:
            counts[conflict.kind] += 1
        counts["total"] = len(self.conflicts)
        return counts

    def summary(self) -> Dict[str, Any]:
        """One JSON-serialisable report of what the run left unordered."""
        by_object: Dict[str, int] = {}
        for conflict in self.conflicts:
            by_object[conflict.obj] = by_object.get(conflict.obj, 0) + 1
        return {
            "accesses": len(self.accesses),
            "actors": sorted(self._clocks),
            "conflicts": self.conflict_counts(),
            "conflicts_by_object": by_object,
        }

    def trace(self) -> List[List[Any]]:
        """The ordered access trace (digest material for replay)."""
        return [[access.at, access.actor, access.kind, access.obj]
                for access in self.accesses]

    def __repr__(self) -> str:
        return "<ConflictSanitizer accesses={} conflicts={}>".format(
            len(self.accesses), len(self.conflicts))


class NoopSanitizer:
    """The disabled sanitizer: every hook is a cheap no-op."""

    enabled = False
    accesses: List[Access] = []
    conflicts: List[Conflict] = []

    def clock(self, actor: str) -> "VectorClock":
        return _clock_class()()

    def local(self, actor: str) -> None:
        pass

    def send(self, actor: str) -> None:
        return None

    def receive(self, actor: str, clock: Any) -> None:
        pass

    def acquire(self, scope: str, actor: str) -> None:
        pass

    def release(self, scope: str, actor: str) -> None:
        pass

    def inject_clock(self, headers: Dict[str, Any],
                     actor: str) -> Dict[str, Any]:
        """Headers returned untouched: packet contents stay
        byte-identical in runs without a sanitizer."""
        return headers

    def extract_clock(self, headers: Dict[str, Any], actor: str) -> None:
        pass

    def on_read(self, obj: str, actor: str, at: float = 0.0) -> None:
        pass

    def on_write(self, obj: str, actor: str, at: float = 0.0) -> None:
        pass

    def conflict_counts(self) -> Dict[str, int]:
        return {WRITE_WRITE: 0, READ_WRITE: 0, "total": 0}

    def summary(self) -> Dict[str, Any]:
        return {"accesses": 0, "actors": [],
                "conflicts": self.conflict_counts(),
                "conflicts_by_object": {}}

    def trace(self) -> List[List[Any]]:
        return []

    def __repr__(self) -> str:
        return "<NoopSanitizer>"


#: The shared disabled sanitizer (the process default).
NOOP_SANITIZER = NoopSanitizer()

_sanitizer: Union[ConflictSanitizer, NoopSanitizer] = NOOP_SANITIZER


def get_sanitizer() -> Union[ConflictSanitizer, NoopSanitizer]:
    """The ambient sanitizer, which an ``Environment`` binds when built."""
    return _sanitizer


@contextlib.contextmanager
def use_sanitizer(sanitizer: Union[ConflictSanitizer, NoopSanitizer]):
    """Scope ``sanitizer`` as the process default, restoring on exit."""
    global _sanitizer
    previous, _sanitizer = _sanitizer, sanitizer
    try:
        yield sanitizer
    finally:
        _sanitizer = previous

