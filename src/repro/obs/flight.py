"""Flight recorder: a deterministic journal of kernel-level decisions.

A run's identity (:func:`repro.analysis.replay.run_digest`) needs a
record of what its participants did and when, and a refuted identity
needs to say *where* behaviour forked.  A :class:`FlightRecorder`
journals the decisions that define a run — event dispatch
(eid/time/priority), packet hops and drops, lock
grants/releases/revocations, RNG draws, actor spawn/exit — into a
bounded ring, and folds every record into per-epoch *rolling* digests
(an epoch is N processed events, or a fixed sim-time window).  Because
each epoch digest chains the previous one, digest ``e`` covers the whole
run prefix up to epoch ``e`` — so two runs can be compared
digest-by-digest without retaining full journals, and the first
divergent epoch can be found by binary search
(:mod:`repro.obs.divergence`).

Design constraints, in order:

* **No-op by default.**  The process default is :data:`NOOP_FLIGHT`;
  instrumentation sites pay one ``is not None`` / attribute check.
* **Observe, never perturb.**  Recording draws no RNG, schedules no
  events and advances no clocks, so replay digests are byte-identical
  with the recorder off *and* on (asserted over every registered
  workload by ``tests/analysis/test_replay.py``).
* **Deterministic.**  Records contain only sim-derived values; span
  ids — which differ between traced and untraced runs — ride in
  underscore-prefixed side fields that are excluded from digests.
* **Bounded.**  ``ring`` caps retained records (``evicted`` counts the
  rest); ``keep_epochs`` narrows retention to an epoch range for the
  divergence localizer's full-journal re-run, with ``context`` records
  preserved from just before the range.

This module is stdlib-only on purpose: the simulation kernel
(:mod:`repro.sim.environment`, :mod:`repro.sim.rng`) imports it lazily,
and it must never pull the rest of :mod:`repro.obs` onto that path.

Quick start::

    from repro.obs.flight import FlightRecorder, use_flight

    recorder = FlightRecorder(epoch_events=512)
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
from typing import Any, Dict, List, Optional, Tuple, Union

#: Default epoch granularity: one digest per this many dispatched events.
DEFAULT_EPOCH_EVENTS = 512

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


# Raw journal entries: ``(kind, epoch, time, ...)`` tuples, turned into
# text (for the digest) or dicts (for a reader) later.  Cold channels and
# records with a string that is not plain build their dict first (_RECORD).
_DISPATCH, _HOP, _RNG, _RECORD = range(4)


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


def _side(span: Any) -> Optional[Tuple[str, str, str]]:
    """The side fields naming a recording span, else None."""
    if span is not None and getattr(span, "is_recording", False):
        return span.trace_id, span.span_id, span.name
    return None


def _record(entry: Tuple[Any, ...]) -> Dict[str, Any]:
    """The dict form of a raw journal entry (what readers see)."""
    kind = entry[0]
    if kind == _RECORD:
        return entry[3]
    if kind == _DISPATCH:
        _, epoch, time, priority, eid = entry
        return {"kind": "dispatch", "time": time, "eid": eid,
                "priority": priority, "epoch": epoch}
    if kind == _HOP:
        _, epoch, time, link, node, src, dst, port, side = entry
        record = {"kind": "hop", "time": time, "link": link, "node": node,
                  "src": src, "dst": dst, "port": port, "epoch": epoch}
        if side is not None:
            record["_trace"], record["_span"], record["_op"] = side
        return record
    _, epoch, time, stream, method, value = entry
    return {"kind": "rng", "time": time, "stream": stream,
            "method": method, "value": value, "epoch": epoch}


class FlightRecorder:
    """Journals kernel decisions into a ring with chained epoch digests.

    ``epoch_events`` rolls an epoch every N dispatched events (the
    default); ``epoch_interval`` instead rolls at fixed sim-time
    boundaries ``k * interval``.  ``keep_epochs=(lo, hi)`` restricts
    the *ring* to records of those epochs (digests always cover the
    whole run) and fills :attr:`context` with the last ``context``
    records from before the range — the divergence localizer's
    "full journal for just the divergent epoch" mode.

    The per-channel ``journal_*`` flags turn individual record kinds
    off; epochs still advance on dispatch either way.

    Recording a decision appends one raw tuple to the current epoch's
    buffer.  The buffer is *folded* — rendered to canonical text in one
    pass, hashed with one update, moved into the ring — when the epoch
    rolls, at :meth:`finish`, and before any read, so every reader sees
    exactly what a record-at-a-time journal would hold; records become
    dicts only when somebody reads them.
    """

    enabled = True

    def __init__(self, ring: int = 4096,
                 epoch_events: Optional[int] = None,
                 epoch_interval: Optional[float] = None,
                 keep_epochs: Optional[Tuple[int, int]] = None,
                 context: int = 64,
                 journal_dispatch: bool = True,
                 journal_rng: bool = True,
                 journal_net: bool = True,
                 journal_locks: bool = True,
                 journal_actors: bool = True) -> None:
        if ring <= 0:
            raise ValueError("ring must be positive")
        if epoch_events is not None and epoch_interval is not None:
            raise ValueError(
                "epoch_events and epoch_interval are mutually exclusive")
        if epoch_interval is not None and epoch_interval <= 0:
            raise ValueError("epoch_interval must be positive")
        if epoch_events is None and epoch_interval is None:
            epoch_events = DEFAULT_EPOCH_EVENTS
        if epoch_events is not None and epoch_events <= 0:
            raise ValueError("epoch_events must be positive")
        self.epoch_events = epoch_events
        self.epoch_interval = epoch_interval
        self.keep_epochs = keep_epochs
        self.journal_dispatch = journal_dispatch
        self.journal_rng = journal_rng
        self.journal_net = journal_net
        self.journal_locks = journal_locks
        self.journal_actors = journal_actors
        #: Chained digests, one per closed epoch: digest ``e`` hashes
        #: digest ``e-1`` followed by epoch ``e``'s canonical records.
        self.epoch_digests: List[str] = []
        # Raw entries: not yet folded, retained, from before keep_epochs.
        self._pending: List[Tuple[Any, ...]] = []
        self._ring = collections.deque(maxlen=ring)
        self._context = collections.deque(maxlen=context)
        self._recorded = 0
        self._admitted = 0      # entries ever offered to the ring
        self._hash = hashlib.sha256()
        self._epoch = 0
        self._epoch_records = 0
        self._epoch_dispatches = 0
        self._boundary_index = 1
        self._time = 0.0
        self._finished = False

    # -- the journal -------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The epoch currently being journalled (= closed epochs)."""
        return self._epoch

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
        for entry in pending:
            time = entry[2]
            if time is not last:
                if time != last or not time \
                        or type(time) is not type(last):
                    stamp = repr(time)
                last = time
            kind = entry[0]
            if kind == _DISPATCH:
                add(f'{{"eid":{entry[4]!r},"epoch":{epoch},'
                    f'"kind":"dispatch","priority":{entry[3]!r},'
                    f'"time":{stamp}}}')
            elif kind == _HOP:
                _, _, _, link, node, src, dst, port, _ = entry
                add(f'{{"dst":"{dst}","epoch":{epoch},"kind":"hop",'
                    f'"link":"{link}","node":"{node}","port":{port!r},'
                    f'"src":"{src}","time":{stamp}}}')
            elif kind == _RNG:
                _, _, _, stream, method, value = entry
                add(f'{{"epoch":{epoch},"kind":"rng",'
                    f'"method":"{method}","stream":"{stream}",'
                    f'"time":{stamp},"value":"{value}"}}')
            else:
                add(canonical(entry[3]))
        self._hash.update("".join(texts).encode())
        count = len(pending)
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
        self.epoch_digests.append(digest)
        self._hash = hashlib.sha256(digest.encode())
        self._epoch += 1
        self._epoch_records = 0
        self._epoch_dispatches = 0

    def on_dispatch(self, time: float, priority: int, eid: int) -> None:
        """Journal one event dispatch; the epoch clock.

        Called by the environment's run loop with the popped entry
        already unpacked into ``(time, priority, eid)`` (the kernel's
        :func:`repro.sim.environment.dispatch_parts` accessor), so the
        journal never depends on how the queue stores its keys.  Also
        tracks the current sim time
        for every other channel, so this must stay attached even when
        ``journal_dispatch`` is off.
        """
        if self.epoch_interval is not None:
            while time >= self._boundary_index * self.epoch_interval:
                self._roll()
                self._boundary_index += 1
        self._time = time
        if self.journal_dispatch:
            self._pending.append(
                (_DISPATCH, self._epoch, time, priority, eid))
        if self.epoch_events is not None:
            self._epoch_dispatches += 1
            if self._epoch_dispatches >= self.epoch_events:
                self._roll()

    def _append(self, record: Dict[str, Any], span: Any = None) -> None:
        """Journal an already-built record (the generic encoder's path)."""
        side = _side(span)
        if side is not None:
            record["_trace"], record["_span"], record["_op"] = side
        record["epoch"] = self._epoch
        self._pending.append((_RECORD, self._epoch, self._time, record))

    def record_rng(self, stream: str, method: str, value: Any) -> None:
        """One RNG draw from a named stream (``repr`` keeps floats exact)."""
        numeric = type(value) is float or type(value) is int
        value = repr(value)     # of a number: always plain
        if (numeric or _PLAIN(value)) and _plain_label(stream) \
                and _plain_label(method):
            self._pending.append(
                (_RNG, self._epoch, self._time, stream, method, value))
        else:
            self._append({"kind": "rng", "time": self._time,
                          "stream": stream, "method": method,
                          "value": value})

    def record_hop(self, link: str, node: str, src: str, dst: str,
                   port: int, span: Any = None) -> None:
        """One packet clearing one link hop."""
        if _plain_label(link) and _plain_label(node) \
                and _plain_label(src) and _plain_label(dst):
            self._pending.append(
                (_HOP, self._epoch, self._time, link, node, src, dst,
                 port, _side(span)))
        else:
            self._append(
                {"kind": "hop", "time": self._time, "link": link,
                 "node": node, "src": src, "dst": dst, "port": port},
                span)

    def record_drop(self, reason: str, link: Optional[str], src: str,
                    dst: str, port: int, span: Any = None) -> None:
        """One packet drop with its attributed reason."""
        self._append(
            {"kind": "drop", "time": self._time, "reason": reason,
             "link": link, "src": src, "dst": dst, "port": port}, span)

    def record_lock(self, event: str, key: str, owner: str, mode: str,
                    style: str, span: Any = None) -> None:
        """One lock-table transition (``grant``/``release``/``revoke``)."""
        self._append(
            {"kind": "lock", "time": self._time, "event": event,
             "key": key, "owner": owner, "mode": mode, "style": style},
            span)

    def record_spawn(self, actor: str) -> None:
        """A named actor process starting."""
        self._append({"kind": "spawn", "time": self._time, "actor": actor})

    def record_exit(self, actor: str, ok: bool) -> None:
        """A named actor process finishing (``ok`` False on error)."""
        self._append({"kind": "exit", "time": self._time, "actor": actor,
                      "ok": bool(ok)})

    def finish(self) -> int:
        """Close the trailing partial epoch; returns total epochs.

        Idempotent.  The partial epoch is only digested when it holds
        records or dispatches, so finishing an idle recorder twice is
        exactly one run's worth of digests.
        """
        if not self._finished:
            self._fold()
            if self._epoch_records or self._epoch_dispatches:
                self._roll()
            self._finished = True
        return len(self.epoch_digests)

    # -- reading (whatever looks at the ring folds first) -------------------

    @property
    def recorded(self) -> int:
        """Records journalled over the recorder's lifetime."""
        return self._recorded + len(self._pending)

    @property
    def evicted(self) -> int:
        """Records pushed out of the ring."""
        self._fold()
        return self._admitted - len(self._ring)

    @property
    def ring(self) -> List[Dict[str, Any]]:
        """The retained records, oldest first (a snapshot)."""
        self._fold()
        return [_record(entry) for entry in self._ring]

    @property
    def context(self) -> List[Dict[str, Any]]:
        """Records from just before ``keep_epochs`` (empty without it)."""
        self._fold()
        return [_record(entry) for entry in self._context]

    def epoch_records(self, epoch: int) -> List[Dict[str, Any]]:
        """The retained records of one epoch, in journal order."""
        self._fold()
        return [_record(entry) for entry in self._ring
                if entry[1] == epoch]

    def __len__(self) -> int:
        self._fold()
        return len(self._ring)

    def __repr__(self) -> str:
        return "<FlightRecorder epoch={} recorded={}{}>".format(
            self._epoch, self.recorded,
            " evicted={}".format(self.evicted) if self.evicted else "")


class NoopFlightRecorder:
    """The disabled recorder: records nothing, allocates nothing."""

    enabled = False
    journal_dispatch = False
    journal_rng = False
    journal_net = False
    journal_locks = False
    journal_actors = False
    epoch_digests: List[str] = []
    ring: Tuple[Dict[str, Any], ...] = ()
    context: Tuple[Dict[str, Any], ...] = ()
    recorded = 0
    evicted = 0
    epoch = 0

    def on_dispatch(self, time: float, priority: int, eid: int) -> None:
        pass

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
    """The process-wide flight recorder consulted by kernel hooks.

    Environments bind it at construction (like the tracer, resolved
    lazily so the kernel never imports :mod:`repro.obs` eagerly), so
    install a recorder *before* creating the environments it should
    observe — :func:`use_flight` around a workload run does exactly
    that.
    """
    return _flight


def set_flight(recorder: Optional[Union[FlightRecorder,
                                        NoopFlightRecorder]]
               ) -> Union[FlightRecorder, NoopFlightRecorder]:
    """Install ``recorder`` (``None`` disables); returns the previous."""
    global _flight
    previous = _flight
    _flight = recorder if recorder is not None else NOOP_FLIGHT
    return previous


def enable_flight(**kwargs: Any) -> FlightRecorder:
    """Install and return a fresh :class:`FlightRecorder`."""
    recorder = FlightRecorder(**kwargs)
    set_flight(recorder)
    return recorder


def disable_flight() -> None:
    """Restore the zero-cost no-op default."""
    set_flight(NOOP_FLIGHT)


@contextlib.contextmanager
def use_flight(recorder: Union[FlightRecorder, NoopFlightRecorder]):
    """Scope ``recorder`` as the process default, restoring on exit."""
    previous = set_flight(recorder)
    try:
        yield recorder
    finally:
        set_flight(previous)
