"""Flight recorder: a deterministic journal of kernel-level decisions.

A run's identity (:attr:`repro.run.Result.digest`) needs a
record of what its participants did and when, and a refuted identity
needs to say *where* behaviour forked.  A :class:`FlightRecorder`
journals the decisions that define a run — packet hops and drops, lock
grants/releases/revocations, RNG draws, actor spawn/exit — into a
bounded ring, and folds every record into per-epoch *rolling* digests
(an epoch is :data:`EPOCH_INTERVAL` of simulated time).  Because
each epoch digest chains the previous one, digest ``e`` covers the whole
run prefix up to epoch ``e`` — so two runs can be compared
digest-by-digest without retaining full journals, and the first
divergent epoch can be found by binary search
(:mod:`repro.obs.divergence`).

Design constraints, in order:

* **No-op by default.**  The process default is :data:`NOOP_FLIGHT`;
  instrumentation sites pay one ``is not None`` / attribute check.
* **Paid per record.**  The recorder reads the clock of the environment
  it is attached to; the kernel calls it only when another environment
  starts running, never per event.
* **Observe, never perturb.**  Recording draws no RNG, schedules no
  events and advances no clocks, so replay digests are byte-identical
  with the recorder off *and* on (asserted over every registered
  workload by ``tests/analysis/test_replay.py``).
* **Deterministic.**  Records contain only sim-derived values; span
  ids — which differ between traced and untraced runs — ride in
  underscore-prefixed side fields that are excluded from digests.
* **Fields, not objects.**  A journal entry is :data:`_WIDTH` fields
  laid end to end in one flat list or deque, so recording allocates
  nothing that is kept but the field values themselves.
* **Bounded.**  ``ring`` caps retained records (``evicted`` counts the
  rest); ``keep_epochs`` narrows retention to an epoch range for the
  divergence localizer's full-journal re-run, with ``context`` records
  preserved from just before the range.

This module is stdlib-only on purpose: the simulation kernel
(:mod:`repro.sim.environment`, :mod:`repro.sim.rng`) imports it lazily,
and it must never pull the rest of :mod:`repro.obs` onto that path.

Quick start::

    from repro.obs.flight import FlightRecorder, use_flight

    recorder = FlightRecorder()
    with use_flight(recorder):
        ... run a workload (environments created inside attach) ...
    recorder.finish()
    recorder.epoch_digests      # compare against another run's
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import json
import re
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

#: Journal epochs are fixed spans of simulated time, so where the chain
#: is cut does not depend on how many events the kernel queued.
EPOCH_INTERVAL = 0.5

_INFINITY = float("inf")

# Strings that JSON renders literally as '"' + s + '"': printable ASCII
# with no quote or backslash.  Lets the hot journal channels build their
# canonical form with a format string instead of json.dumps (~5x); any
# other string falls back to the generic encoder.  ``\Z``, not ``$``:
# ``$`` also matches before a trailing newline, which JSON escapes.
_PLAIN = re.compile(r'^[ -!#-\[\]-~]*\Z').match


@functools.lru_cache(maxsize=1024)
def _plain_label(label: str) -> bool:
    """:data:`_PLAIN` for link/node/stream labels: a run has a few dozen
    and repeats them per record, so each pays the regex once."""
    return _PLAIN(label) is not None


# Raw journal entries: ``_WIDTH`` fields ``kind, epoch, time, ...``, laid
# end to end in a flat list or deque and turned into text (for the
# digest) or dicts (for a reader) later.  A hop's fields are its link,
# node, src, dst, port and its transit's trace and span ids (None when
# untraced); an rng draw's its stream, method and value.  Cold channels
# and records with a string that is not plain build their dict first
# (_RECORD: the dict is the fourth field).  Unused fields are None.
_HOP, _RNG, _RECORD = range(3)
_WIDTH = 10
#: The ``_op`` side field of a traced hop: it names its packet's span.
_TRANSIT = "net.transmit"


def canonical(record: Dict[str, Any]) -> str:
    """The digestable form of a record: sorted JSON, side fields dropped.

    Fields whose names start with ``_`` are side metadata (owning
    span/trace, attached by instrumentation when a tracer happens to be
    recording) and must not influence digests — a traced and an
    untraced run of the same seed journal identically.
    """
    return json.dumps(
        {key: value for key, value in record.items() if key[0] != "_"},
        sort_keys=True, separators=(",", ":"))


def _render(prefix: str, number: Any) -> str:
    """A span or trace id from its number, as ``obs.span.render``."""
    return f"{prefix}{number}" if number.__class__ is int else number


def side_fields(span: Any) -> Optional[Tuple[str, str, str]]:
    """The side fields naming a recording span, else None."""
    if span is not None and getattr(span, "is_recording", False):
        return span.trace_id, span.span_id, span.name
    return None


def _entries(fields: Any) -> Iterator[Tuple[Any, ...]]:
    """The journal entries laid end to end in ``fields``, in order."""
    every = iter(fields)
    return zip(*(every,) * _WIDTH)


def _records(fields: Any, epoch: Optional[int] = None
             ) -> List[Dict[str, Any]]:
    """The dict forms of the entries in ``fields`` (what readers see),
    of one epoch only when ``epoch`` is given."""
    records = []
    for kind, at, time, a, b, c, d, e, trace, span in _entries(fields):
        if epoch is not None and at != epoch:
            continue
        if kind == _RECORD:
            records.append(a)
        elif kind == _HOP:
            record = {"kind": "hop", "time": time, "link": a, "node": b,
                      "src": c, "dst": d, "port": e, "epoch": at}
            if trace is not None:
                record["_trace"], record["_span"], record["_op"] = \
                    _render("t", trace), _render("s", span), _TRANSIT
            records.append(record)
        else:
            records.append({"kind": "rng", "time": time, "stream": a,
                            "method": b, "value": c, "epoch": at})
    return records


class FlightRecorder:
    """Journals kernel decisions into a ring with chained epoch digests.

    ``keep_epochs=(lo, hi)`` restricts the *ring* to records of those
    epochs (digests always cover the whole run) and fills
    :attr:`context` with the last ``context`` records from before the
    range — the divergence localizer's "full journal for just the
    divergent epoch" mode.

    The recorder reads its clock: the environment last handed to
    :meth:`attach`, which is the last one bound to the recorder to enter
    ``run()`` or ``step()``.  A record first rolls every epoch boundary
    that clock has passed, then takes its instant, so records made
    while a second environment is being built carry the first one's
    last instant.  A run that journals nothing costs nothing per event.

    Recording a decision appends its fields to the current epoch's
    buffer.  The buffer is *folded* — rendered to canonical text in one
    pass, hashed with one update, moved into the ring — when the epoch
    rolls, at :meth:`finish`, and before any read, so every reader sees
    exactly what a record-at-a-time journal would hold; records become
    dicts only when somebody reads them.
    """

    enabled = True

    def __init__(self, ring: int = 4096,
                 keep_epochs: Optional[Tuple[int, int]] = None,
                 context: int = 64) -> None:
        if not _is_count(ring, 1):
            raise ValueError(
                "ring must be a positive integer, got {!r}".format(ring))
        if not _is_count(context, 0):
            raise ValueError("context must be a non-negative integer, "
                             "got {!r}".format(context))
        if keep_epochs is not None:
            if not (isinstance(keep_epochs, (tuple, list))
                    and len(keep_epochs) == 2
                    and _is_count(keep_epochs[0], 0)
                    and _is_count(keep_epochs[1], keep_epochs[0])):
                raise ValueError(
                    "keep_epochs must be a pair (lo, hi) of integers with "
                    "0 <= lo <= hi, got {!r}".format(keep_epochs))
            keep_epochs = tuple(keep_epochs)
        self.keep_epochs = keep_epochs
        # Chained digests, one per closed epoch: digest ``e`` hashes
        # digest ``e-1`` followed by epoch ``e``'s canonical records.
        self._digests: List[str] = []
        # Entries' fields: not yet folded, retained, from before
        # keep_epochs.
        self._pending: List[Any] = []
        self._ring = collections.deque(maxlen=ring * _WIDTH)
        self._context = collections.deque(maxlen=context * _WIDTH)
        self._recorded = 0
        self._admitted = 0      # entries ever offered to the ring
        self._hash = hashlib.sha256()
        self._epoch = 0
        self._epoch_records = 0
        self._boundary = 1      # the next epoch ends at this * interval
        self._env: Any = None
        self._finished = False

    # -- the clock ---------------------------------------------------------

    def attach(self, env: Any) -> None:
        """Read ``env``'s clock from now on.

        The kernel calls this when an environment bound to the recorder
        enters ``run()`` or ``step()`` while another one is attached.
        The boundaries the old clock has passed are rolled first, so a
        hand-over loses none.
        """
        self._tick()
        self._env = env

    def _tick(self) -> float:
        """Roll every epoch boundary the clock has passed; its instant.

        Boundaries are ``k * EPOCH_INTERVAL`` (not repeated addition),
        and an instant at infinity passes none.  Before any environment
        is attached the clock reads 0.0.
        """
        env = self._env
        if env is None:
            return 0.0
        now = env.now
        while self._boundary * EPOCH_INTERVAL <= now < _INFINITY:
            self._roll()
            self._boundary += 1
        return now

    # -- the journal -------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The epoch currently being journalled (= closed epochs)."""
        self._tick()
        return self._epoch

    @property
    def epoch_digests(self) -> List[str]:
        """The chained digests of the closed epochs, oldest first."""
        self._tick()
        return self._digests

    def _fold(self) -> None:
        """Digest the buffered entries and move them into the ring.

        All of them belong to the current epoch (a roll folds first),
        and the hash sees the same bytes as one update per record, so
        digests do not depend on when reads fold.  The hot channels'
        canonical forms are spelled out, keys sorted; ``repr`` matches
        json's ints and floats.  Most records repeat their
        predecessor's timestamp, whose text is reused — not across
        ``0.0 == -0.0`` or ``1 == 1.0``, which render differently.
        """
        pending = self._pending
        if not pending:
            return
        epoch = repr(self._epoch)
        texts = []
        add = texts.append
        last = stamp = None
        for kind, _, time, a, b, c, d, e, _, _ in _entries(pending):
            if time is not last:
                if time != last or not time \
                        or type(time) is not type(last):
                    stamp = repr(time)
                last = time
            if kind == _HOP:
                add(f'{{"dst":"{d}","epoch":{epoch},"kind":"hop",'
                    f'"link":"{a}","node":"{b}","port":{e!r},'
                    f'"src":"{c}","time":{stamp}}}')
            elif kind == _RNG:
                add(f'{{"epoch":{epoch},"kind":"rng",'
                    f'"method":"{b}","stream":"{a}",'
                    f'"time":{stamp},"value":"{c}"}}')
            else:
                add(canonical(a))
        self._hash.update("".join(texts).encode())
        count = len(texts)
        self._recorded += count
        self._epoch_records += count
        keep = self.keep_epochs
        if keep is None or keep[0] <= self._epoch <= keep[1]:
            self._admitted += count
            self._ring.extend(pending)
        elif self._epoch < keep[0]:
            self._context.extend(pending)
        pending.clear()

    def _roll(self) -> None:
        self._fold()
        digest = self._hash.hexdigest()
        self._digests.append(digest)
        self._hash = hashlib.sha256(digest.encode())
        self._epoch += 1
        self._epoch_records = 0

    def _append(self, record: Dict[str, Any],
                side: Optional[Tuple[str, str, str]] = None) -> None:
        """Journal an already-built record (the generic encoder's path)."""
        if side is not None:
            record["_trace"], record["_span"], record["_op"] = side
        record["epoch"] = self._epoch
        self._pending.extend((_RECORD, self._epoch, record["time"], record,
                              None, None, None, None, None, None))

    def record_rng(self, stream: str, method: str, value: Any) -> None:
        """One RNG draw from a named stream (``repr`` keeps floats exact)."""
        time = self._tick()
        numeric = type(value) is float or type(value) is int
        value = repr(value)     # of a number: always plain
        if (numeric or _PLAIN(value)) and _plain_label(stream) \
                and _plain_label(method):
            self._pending.extend((_RNG, self._epoch, time, stream, method,
                                  value, None, None, None, None))
        else:
            self._append({"kind": "rng", "time": time,
                          "stream": stream, "method": method,
                          "value": value})

    def record_hop(self, link: str, node: str, src: str, dst: str,
                   port: int, transit: Any = None) -> None:
        """One packet clearing one link hop; ``transit`` is the packet's
        ``net.transmit`` span when it is recording, else None."""
        time = self._tick()
        if transit is None:
            trace = span = None
        else:
            # Its numbers (obs.span.Span.trace_no): a record keeps no id
            # string alive, and the ids are rendered on read.
            trace, span = transit.trace_no, transit.span_no
        if _plain_label(link) and _plain_label(node) \
                and _plain_label(src) and _plain_label(dst):
            self._pending.extend((_HOP, self._epoch, time, link, node, src,
                                  dst, port, trace, span))
        else:
            self._append(
                {"kind": "hop", "time": time, "link": link,
                 "node": node, "src": src, "dst": dst, "port": port},
                None if transit is None else (
                    _render("t", trace), _render("s", span), _TRANSIT))

    def record_drop(self, reason: str, link: Optional[str], src: str,
                    dst: str, port: int, span: Any = None) -> None:
        """One packet drop with its attributed reason."""
        self._append(
            {"kind": "drop", "time": self._tick(), "reason": reason,
             "link": link, "src": src, "dst": dst, "port": port},
            side_fields(span))

    def record_lock(self, event: str, key: str, owner: str, mode: str,
                    style: str, span: Any = None) -> None:
        """One lock-table transition (``grant``/``release``/``revoke``)."""
        self._append(
            {"kind": "lock", "time": self._tick(), "event": event,
             "key": key, "owner": owner, "mode": mode, "style": style},
            side_fields(span))

    def record_spawn(self, actor: str) -> None:
        """A named actor process starting."""
        self._append({"kind": "spawn", "time": self._tick(),
                      "actor": actor})

    def record_exit(self, actor: str, ok: bool) -> None:
        """A named actor process finishing (``ok`` False on error)."""
        self._append({"kind": "exit", "time": self._tick(), "actor": actor,
                      "ok": bool(ok)})

    def finish(self) -> int:
        """Close the trailing partial epoch; returns total epochs.

        Idempotent.  The partial epoch is only digested when it holds
        records, so finishing an idle recorder twice is exactly one
        run's worth of digests.
        """
        if not self._finished:
            self._tick()
            self._fold()
            if self._epoch_records:
                self._roll()
            self._finished = True
        return len(self._digests)

    # -- reading (whatever looks at the ring folds first) -------------------

    @property
    def recorded(self) -> int:
        """Records journalled over the recorder's lifetime."""
        return self._recorded + len(self._pending) // _WIDTH

    @property
    def evicted(self) -> int:
        """Records pushed out of the ring."""
        self._fold()
        return self._admitted - len(self._ring) // _WIDTH

    @property
    def ring(self) -> List[Dict[str, Any]]:
        """The retained records, oldest first (a snapshot)."""
        self._fold()
        return _records(self._ring)

    @property
    def context(self) -> List[Dict[str, Any]]:
        """Records from just before ``keep_epochs`` (empty without it)."""
        self._fold()
        return _records(self._context)

    def epoch_records(self, epoch: int) -> List[Dict[str, Any]]:
        """The retained records of one epoch, in journal order."""
        self._fold()
        return _records(self._ring, epoch)

    def __len__(self) -> int:
        self._fold()
        return len(self._ring) // _WIDTH

    def __repr__(self) -> str:
        return "<FlightRecorder epoch={} recorded={}{}>".format(
            self.epoch, self.recorded,
            " evicted={}".format(self.evicted) if self.evicted else "")


def _is_count(value: Any, least: int) -> bool:
    """An int of at least ``least``; ``True`` is not one (``ring=True``
    would be a one-record ring)."""
    return not isinstance(value, bool) and isinstance(value, int) \
        and value >= least


class NoopFlightRecorder:
    """The disabled recorder: records nothing, allocates nothing."""

    enabled = False
    epoch_digests: Tuple[str, ...] = ()
    ring: Tuple[Dict[str, Any], ...] = ()
    context: Tuple[Dict[str, Any], ...] = ()
    recorded = 0
    evicted = 0
    epoch = 0

    def record_rng(self, stream: str, method: str, value: Any) -> None:
        pass

    def record_hop(self, *args: Any, **kwargs: Any) -> None:
        pass

    def record_drop(self, *args: Any, **kwargs: Any) -> None:
        pass

    def record_lock(self, *args: Any, **kwargs: Any) -> None:
        pass

    def record_spawn(self, actor: str) -> None:
        pass

    def record_exit(self, actor: str, ok: bool) -> None:
        pass

    def finish(self) -> int:
        return 0

    def epoch_records(self, epoch: int) -> List[Dict[str, Any]]:
        return []

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "<NoopFlightRecorder>"


#: The shared disabled recorder (the process default).
NOOP_FLIGHT = NoopFlightRecorder()

_flight: Union[FlightRecorder, NoopFlightRecorder] = NOOP_FLIGHT


def get_flight() -> Union[FlightRecorder, NoopFlightRecorder]:
    """The ambient flight recorder, which an ``Environment`` binds when
    built (with every other observer), so install a recorder *before*
    creating the environments it should observe, as
    ``RunSpec(journal=...)`` does for a workload run.
    """
    return _flight


@contextlib.contextmanager
def use_flight(recorder: Union[FlightRecorder, NoopFlightRecorder]):
    """Scope ``recorder`` as the process default, restoring on exit."""
    global _flight
    previous, _flight = _flight, recorder
    try:
        yield recorder
    finally:
        _flight = previous
