"""Operation transformation for replicated text (GROVE, §4.2.1).

The paper: *"the group editor GROVE adopts a new form of concurrency
control based on operation transformations.  This allows operations to
proceed immediately to improve real-time response time."*

This module implements that mechanism with the server-ordered architecture
later proved correct for the Jupiter system: every site applies its own
operations immediately (zero response time); a sequencer site establishes
the canonical order and everyone transforms concurrent operations so all
replicas converge.  Operations are character-granularity inserts and
deletes, which keeps the transformation functions total (no splitting) and
the convergence property (TP1) easy to verify exhaustively.

Pure cores (:class:`OTServerCore`, :class:`OTClientCore`) carry the whole
algorithm network-free for property testing; :class:`OTServerSite` /
:class:`OTClientSite` wire them to simulated hosts.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConcurrencyError
from repro.net.network import Host
from repro.net.packet import Packet

OT_PORT = 30


def _is_index(value: Any) -> bool:
    """A non-negative ``int`` (``bool`` is not a position)."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


class Insert:
    """Insert one character at a position."""

    __slots__ = ("pos", "char")

    def __init__(self, pos: int, char: str) -> None:
        if not _is_index(pos):
            raise ConcurrencyError(
                "pos must be a non-negative int: {!r}".format(pos))
        if not isinstance(char, str) or len(char) != 1:
            raise ConcurrencyError(
                "char must be one character: {!r}".format(char))
        self.pos = pos
        self.char = char

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Insert) and \
            (self.pos, self.char) == (other.pos, other.char)

    def __repr__(self) -> str:
        return "Ins({}, {!r})".format(self.pos, self.char)


class Delete:
    """Delete the character at a position."""

    __slots__ = ("pos",)

    def __init__(self, pos: int) -> None:
        if not _is_index(pos):
            raise ConcurrencyError(
                "pos must be a non-negative int: {!r}".format(pos))
        self.pos = pos

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Delete) and self.pos == other.pos

    def __repr__(self) -> str:
        return "Del({})".format(self.pos)


class Noop:
    """The identity operation (result of cancelling transforms)."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Noop)

    def __repr__(self) -> str:
        return "Noop()"


Op = Any  # Insert | Delete | Noop

_new = object.__new__


def _insert_at(pos: int, char: str) -> Insert:
    """An :class:`Insert` of a checked op moved by one: no re-check."""
    op = _new(Insert)
    op.pos = pos
    op.char = char
    return op


def _delete_at(pos: int) -> Delete:
    """A :class:`Delete` of a checked op moved by one: no re-check."""
    op = _new(Delete)
    op.pos = pos
    return op


def apply_op(text: str, op: Op) -> str:
    """Apply one operation to a text."""
    kind = type(op)
    if kind is Insert:
        pos = op.pos
        if pos > len(text):
            raise ConcurrencyError(
                "insert at {} beyond end {}".format(pos, len(text)))
        return text[:pos] + op.char + text[pos:]
    if kind is Delete:
        pos = op.pos
        if pos >= len(text):
            raise ConcurrencyError(
                "delete at {} beyond end {}".format(pos, len(text)))
        return text[:pos] + text[pos + 1:]
    if kind is Noop:
        return text
    raise ConcurrencyError("unknown operation: {!r}".format(op))


def apply_ops(text: str, ops: List[Op]) -> str:
    """Apply a sequence of operations."""
    for op in ops:
        text = apply_op(text, op)
    return text


def xform(a: Op, b: Op, a_wins: bool) -> Op:
    """Transform ``a`` to apply after ``b`` (inclusion transformation).

    ``a_wins`` breaks insert-position ties deterministically; callers must
    derive it from a total order on sites (here: lexicographic site name).
    For concurrent sequences ``A`` and ``B``, transforming each ``a``
    over every ``b`` while each ``b`` is moved past ``a`` (the grid the
    cores walk) gives ``A'`` and ``B'`` with TP1: applying ``A then B'``
    and ``B then A'`` yield the same text.
    """
    kind = type(a)
    other = type(b)
    if kind is Insert:
        if other is Insert:
            if a.pos < b.pos or (a.pos == b.pos and a_wins):
                return a
            return _insert_at(a.pos + 1, a.char)
        if other is Delete:
            if a.pos <= b.pos:
                return a
            return _insert_at(a.pos - 1, a.char)
    elif kind is Delete:
        if other is Insert:
            if a.pos < b.pos:
                return a
            return _delete_at(a.pos + 1)
        if other is Delete:
            if a.pos < b.pos:
                return a
            if a.pos > b.pos:
                return _delete_at(a.pos - 1)
            return Noop()
    if kind is Noop or other is Noop:
        return a
    raise ConcurrencyError("cannot transform {!r} over {!r}".format(a, b))


# -- pure protocol cores ------------------------------------------------------


class OTServerCore:
    """Sequencer state: canonical document, revision history."""

    def __init__(self, initial: str = "") -> None:
        self.text = initial
        #: history[i] = (site, ops) applied to produce revision i+1.
        self.history: List[Tuple[str, List[Op]]] = []

    @property
    def revision(self) -> int:
        return len(self.history)

    def receive(self, site: str, base_rev: int,
                ops: List[Op]) -> Tuple[int, List[Op]]:
        """Ingest ops based on ``base_rev``; returns (new_rev, ops').

        Only the incoming side of the grid is computed: a sequenced batch
        is moved past every incoming op but the last, because the ops
        after it transform against the moved batch, and never past the
        last, because nothing reads the result.
        """
        if not _is_index(base_rev) or base_rev > self.revision:
            raise ConcurrencyError(
                "base_rev must be a revision in 0..{}: {!r}".format(
                    self.revision, base_rev))
        if not ops:
            raise ConcurrencyError("ops must hold at least one op")
        transformed = list(ops)
        last = len(transformed) - 1
        for other_site, other_ops in self.history[base_rev:]:
            a_wins = site < other_site
            if last:
                b_wins = not a_wins
                other_ops = list(other_ops)
                for index in range(last):
                    a = transformed[index]
                    for i, b in enumerate(other_ops):
                        a, other_ops[i] = \
                            xform(a, b, a_wins), xform(b, a, b_wins)
                    transformed[index] = a
            a = transformed[last]
            for b in other_ops:
                a = xform(a, b, a_wins)
            transformed[last] = a
        self.text = apply_ops(self.text, transformed)
        self.history.append((site, transformed))
        return self.revision, transformed


class OTClientCore:
    """One site: immediate local application, one in-flight batch.

    ``revision`` may be non-zero for a late joiner initialised from a
    server snapshot taken at that revision.  Server messages must come
    in revision order: each ack or remote is ``revision + 1``.
    """

    def __init__(self, site: str, initial: str = "",
                 revision: int = 0) -> None:
        if not _is_index(revision):
            raise ConcurrencyError(
                "revision must be a non-negative int: {!r}".format(revision))
        self.site = site
        self.text = initial
        self.revision = revision
        #: The batch the server has not acked.  It is the sent packet's
        #: payload, so it is replaced, never written into.
        self._inflight: Optional[List[Op]] = None
        self._queue: List[List[Op]] = []

    @property
    def has_unacked(self) -> bool:
        """True while local edits have not been sequenced."""
        return self._inflight is not None or bool(self._queue)

    def local_edit(self, ops: List[Op]) -> Optional[Tuple[int, List[Op]]]:
        """Apply locally (immediately) and return a send, if one is due.

        The return value is ``(base_rev, ops)`` to transmit to the server,
        or ``None`` when a batch is already in flight (the new ops queue).
        """
        if not ops:
            raise ConcurrencyError("ops must hold at least one op")
        self.text = apply_ops(self.text, ops)
        self._queue.append(list(ops))
        return self._maybe_send()

    def server_ack(self, new_rev: int) -> Optional[Tuple[int, List[Op]]]:
        """The in-flight batch was sequenced; returns the next send."""
        if type(new_rev) is not int or new_rev != self.revision + 1:
            self._out_of_order(new_rev)
        if self._inflight is None:
            raise ConcurrencyError("ack without an in-flight batch")
        self.revision = new_rev
        self._inflight = None
        return self._maybe_send()

    def server_remote(self, new_rev: int, origin: str,
                      ops: List[Op]) -> List[Op]:
        """A remote batch arrives; returns the ops applied locally."""
        if type(new_rev) is not int or new_rev != self.revision + 1:
            self._out_of_order(new_rev)
        incoming = list(ops)
        inflight = self._inflight
        queue = self._queue
        if inflight is not None or queue:
            # One grid: each incoming op moves past every unacked local
            # op, in send order, while each local op moves past it.  With
            # nothing unacked the remote ops apply as sequenced.
            mine_wins = self.site < origin
            theirs_wins = not mine_wins
            if inflight is None:
                batches = queue
            else:
                inflight = self._inflight = list(inflight)
                batches = [inflight]
                batches.extend(queue)
            for index, a in enumerate(incoming):
                for batch in batches:
                    for i, b in enumerate(batch):
                        a, batch[i] = \
                            xform(a, b, theirs_wins), xform(b, a, mine_wins)
                incoming[index] = a
        self.text = apply_ops(self.text, incoming)
        self.revision = new_rev
        return incoming

    def _out_of_order(self, new_rev: Any) -> None:
        raise ConcurrencyError(
            "new_rev must be the next revision {}: {!r}".format(
                self.revision + 1, new_rev))

    def _maybe_send(self) -> Optional[Tuple[int, List[Op]]]:
        if self._inflight is not None or not self._queue:
            return None
        self._inflight = self._queue.pop(0)
        return (self.revision, self._inflight)


# -- networked sites -----------------------------------------------------------


class OTServerSite:
    """The sequencer attached to a host.

    The server listens on ``port``; clients listen on ``port + 1`` —
    distinct ports let a client replica co-reside with the sequencer on
    one host.
    """

    def __init__(self, host: Host, initial: str = "",
                 port: int = OT_PORT) -> None:
        self.core = OTServerCore(initial)
        self.host = host
        self.env = host.env
        self.port = port
        self.clients: List[str] = []
        host.on_packet(port, self._on_packet)

    def register(self, client_node: str) -> None:
        """Admit a client site (it will receive remote broadcasts)."""
        if client_node not in self.clients:
            self.clients.append(client_node)

    def snapshot(self) -> Tuple[str, int]:
        """(text, revision) for initialising a late-joining client."""
        return (self.core.text, self.core.revision)

    def _on_packet(self, packet: Packet) -> None:
        message = packet.payload
        if message.get("type") != "op":
            return
        new_rev, transformed = self.core.receive(
            message["site"], message["base_rev"], message["ops"])
        self.host.send(packet.src, port=self.port + 1, size=64,
                       payload={"type": "ack", "rev": new_rev})
        for client in self.clients:
            if client != packet.src:
                self.host.send(client, port=self.port + 1, size=128,
                               payload={"type": "remote", "rev": new_rev,
                                        "origin": message["site"],
                                        "ops": transformed})


class OTClientSite:
    """A collaborating site attached to a host.

    Packets to one site can overtake each other (per-packet jitter), but
    the core integrates server messages in revision order, so the site
    holds back any message that arrives before its predecessor.
    """

    def __init__(self, host: Host, server_node: str, initial: str = "",
                 port: int = OT_PORT,
                 on_remote: Optional[Callable[[List[Op]], None]] = None,
                 revision: int = 0) -> None:
        self.core = OTClientCore(host.name, initial, revision=revision)
        self.host = host
        self.env = host.env
        self.server_node = server_node
        self.port = port
        self.on_remote = on_remote
        #: (time, kind) log for response/notification measurements.
        self.applied_log: List[Tuple[float, str]] = []
        #: Server messages that arrived before an earlier revision, by
        #: revision; each is integrated once its predecessor is.
        self._held: Dict[int, Dict[str, Any]] = {}
        host.on_packet(port + 1, self._on_packet)

    @property
    def text(self) -> str:
        """The site's current (immediately responsive) view."""
        return self.core.text

    def edit(self, ops: List[Op]) -> None:
        """Perform a local edit; the user sees it instantly."""
        send = self.core.local_edit(ops)
        self.applied_log.append((self.env.now, "local"))
        self._transmit(send)

    def insert(self, pos: int, text: str) -> None:
        """Convenience: insert a string as successive character ops."""
        if not isinstance(text, str) or not text:
            raise ConcurrencyError(
                "text must be a non-empty str: {!r}".format(text))
        self.edit([Insert(pos + i, ch) for i, ch in enumerate(text)])

    def delete(self, pos: int, count: int = 1) -> None:
        """Convenience: delete ``count`` characters at ``pos``."""
        if not _is_index(count) or not count:
            raise ConcurrencyError(
                "count must be a positive int: {!r}".format(count))
        self.edit([Delete(pos) for _ in range(count)])

    def _transmit(self, send: Optional[Tuple[int, List[Op]]]) -> None:
        if send is None:
            return
        base_rev, ops = send
        self.host.send(self.server_node, port=self.port, size=128,
                       payload={"type": "op", "site": self.core.site,
                                "base_rev": base_rev, "ops": ops})

    def _on_packet(self, packet: Packet) -> None:
        message = packet.payload
        kind = message.get("type")
        if kind != "ack" and kind != "remote":
            return
        if message["rev"] > self.core.revision + 1:
            # Jitter let it overtake an earlier revision: hold it back.
            self._held[message["rev"]] = message
            return
        while True:
            if kind == "ack":
                self._transmit(self.core.server_ack(message["rev"]))
            else:
                applied = self.core.server_remote(
                    message["rev"], message["origin"], message["ops"])
                self.applied_log.append((self.env.now, "remote"))
                if self.on_remote is not None:
                    self.on_remote(applied)
            if not self._held:
                return
            message = self._held.pop(self.core.revision + 1, None)
            if message is None:
                return
            kind = message["type"]
