"""The sequence-at-a-time OT loop, kept as a reference model.

``OTServerCore.receive`` and ``OTClientCore.server_remote`` used to
transform whole batches with ``xform_sequences``: one call per
sequenced or unacked batch, a copy of each, both sides of every pair
computed even where the server drops one, and ``xform``/``apply_op``
dispatching through an ``isinstance`` chain.  The single grid walk that
replaced them is held to that code here: the functions and methods
below are the replaced ones verbatim, the methods grafted onto
subclasses, so a test can drive both cores with the same steps and
compare.  A reference, not a second path — nothing under ``src/``
imports this.
"""

from typing import List, Tuple

from repro.concurrency.ot import (Delete, Insert, Noop, Op, OTClientCore,
                                  OTServerCore)
from repro.errors import ConcurrencyError


def apply_op(text: str, op: Op) -> str:
    if isinstance(op, Noop):
        return text
    if isinstance(op, Insert):
        if op.pos > len(text):
            raise ConcurrencyError(
                "insert at {} beyond end {}".format(op.pos, len(text)))
        return text[:op.pos] + op.char + text[op.pos:]
    if isinstance(op, Delete):
        if op.pos >= len(text):
            raise ConcurrencyError(
                "delete at {} beyond end {}".format(op.pos, len(text)))
        return text[:op.pos] + text[op.pos + 1:]
    raise ConcurrencyError("unknown operation: {!r}".format(op))


def apply_ops(text: str, ops: List[Op]) -> str:
    for op in ops:
        text = apply_op(text, op)
    return text


def xform(a: Op, b: Op, a_wins: bool) -> Op:
    if isinstance(a, Noop) or isinstance(b, Noop):
        return a
    if isinstance(a, Insert) and isinstance(b, Insert):
        if a.pos < b.pos or (a.pos == b.pos and a_wins):
            return a
        return Insert(a.pos + 1, a.char)
    if isinstance(a, Insert) and isinstance(b, Delete):
        if a.pos <= b.pos:
            return a
        return Insert(a.pos - 1, a.char)
    if isinstance(a, Delete) and isinstance(b, Insert):
        if a.pos < b.pos:
            return a
        return Delete(a.pos + 1)
    if isinstance(a, Delete) and isinstance(b, Delete):
        if a.pos < b.pos:
            return a
        if a.pos > b.pos:
            return Delete(a.pos - 1)
        return Noop()
    raise ConcurrencyError("cannot transform {!r} over {!r}".format(a, b))


def xform_sequences(ops_a: List[Op], ops_b: List[Op],
                    a_wins: bool) -> Tuple[List[Op], List[Op]]:
    """Transform two concurrent sequences over each other.

    Returns ``(A', B')`` with the guarantee (TP1) that applying
    ``A then B'`` and ``B then A'`` yield the same text.
    """
    ops_b = list(ops_b)
    out_a: List[Op] = []
    for a in ops_a:
        for i, b in enumerate(ops_b):
            a, ops_b[i] = xform(a, b, a_wins), xform(b, a, not a_wins)
        out_a.append(a)
    return out_a, ops_b


class ModelServerCore(OTServerCore):
    """``OTServerCore`` whose ``receive`` transforms batch by batch."""

    def receive(self, site: str, base_rev: int,
                ops: List[Op]) -> Tuple[int, List[Op]]:
        if not 0 <= base_rev <= self.revision:
            raise ConcurrencyError(
                "bad base revision {} (server at {})".format(
                    base_rev, self.revision))
        transformed = list(ops)
        for other_site, other_ops in self.history[base_rev:]:
            transformed, _ = xform_sequences(
                transformed, list(other_ops), a_wins=site < other_site)
        self.text = apply_ops(self.text, transformed)
        self.history.append((site, transformed))
        return self.revision, transformed


class ModelClientCore(OTClientCore):
    """``OTClientCore`` whose ``server_remote`` transforms batch by
    batch."""

    def server_remote(self, new_rev: int, origin: str,
                      ops: List[Op]) -> List[Op]:
        incoming = list(ops)
        mine_wins = self.site < origin
        if self._inflight is not None:
            incoming, self._inflight = xform_sequences(
                incoming, self._inflight, a_wins=not mine_wins)
        for i, queued in enumerate(self._queue):
            incoming, self._queue[i] = xform_sequences(
                incoming, queued, a_wins=not mine_wins)
        self.text = apply_ops(self.text, incoming)
        self.revision = new_rev
        return incoming
