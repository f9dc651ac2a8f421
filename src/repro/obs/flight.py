"""Flight recorder: a deterministic journal of kernel-level decisions.

``repro.analysis.replay`` can prove that two same-seed runs produced
different digests, but not *where* behaviour forked.  This module is the
missing record: a :class:`FlightRecorder` journals the decisions that
define a run — event dispatch (eid/time/priority), packet hops and
drops, lock grants/releases/revocations, RNG draws, actor spawn/exit —
into a bounded ring, and folds every record into per-epoch *rolling*
digests (an epoch is N processed events, or a fixed sim-time window).
Because each epoch digest chains the previous one, digest ``e`` covers
the whole run prefix up to epoch ``e`` — so two runs can be compared
digest-by-digest without retaining full journals, and the first
divergent epoch can be found by binary search
(:mod:`repro.obs.divergence`).

Design constraints, in order:

* **No-op by default.**  The process default is :data:`NOOP_FLIGHT`;
  instrumentation sites pay one ``is not None`` / attribute check.
* **Observe, never perturb.**  Recording draws no RNG, schedules no
  events and advances no clocks, so replay digests are byte-identical
  with the recorder off *and* on (asserted by the O2 bench and the
  all-workload tests).
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
import hashlib
import json
import re
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

#: Schema tag stamped on flight records in JSONL dumps.
FLIGHT_SCHEMA = "repro-flight/1"

#: Default epoch granularity: one digest per this many dispatched events.
DEFAULT_EPOCH_EVENTS = 512

# Strings that JSON renders literally as '"' + s + '"': printable ASCII
# with no quote or backslash.  Lets the hot journal channels build their
# canonical form with a format string instead of json.dumps (~5x); any
# other string falls back to the generic encoder.
_PLAIN = re.compile(r'^[ -!#-\[\]-~]*$').match


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
        self.ring: "collections.deque[Dict[str, Any]]" = \
            collections.deque(maxlen=ring)
        #: Records from just before ``keep_epochs`` (empty without it).
        self.context: "collections.deque[Dict[str, Any]]" = \
            collections.deque(maxlen=context)
        #: Chained digests, one per closed epoch: digest ``e`` hashes
        #: digest ``e-1`` followed by epoch ``e``'s canonical records.
        self.epoch_digests: List[str] = []
        #: Records journalled over the recorder's lifetime.
        self.recorded = 0
        #: Records pushed out of the ring.
        self.evicted = 0
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

    def _append(self, record: Dict[str, Any],
                canon: Optional[str] = None) -> None:
        record["epoch"] = self._epoch
        self.recorded += 1
        self._epoch_records += 1
        if canon is None:
            if any(key[0] == "_" for key in record):
                canon = canonical(record)
            else:
                canon = json.dumps(record, sort_keys=True,
                                   separators=(",", ":"))
        self._hash.update(canon.encode())
        keep = self.keep_epochs
        if keep is not None:
            epoch = self._epoch
            if epoch < keep[0]:
                self.context.append(record)
                return
            if epoch > keep[1]:
                return
        if len(self.ring) == self.ring.maxlen:
            self.evicted += 1
        self.ring.append(record)

    def _roll(self) -> None:
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
            # The canonical form is built with a format string here:
            # dispatch records dominate the journal and json.dumps is
            # ~10x the cost (%r matches json's int/float rendering;
            # test_dispatch_fast_path_matches_canonical pins equality).
            self._append(
                {"kind": "dispatch", "time": time, "eid": eid,
                 "priority": priority},
                '{"eid":%r,"epoch":%r,"kind":"dispatch","priority":%r,'
                '"time":%r}' % (eid, self._epoch, priority, time))
        if self.epoch_events is not None:
            self._epoch_dispatches += 1
            if self._epoch_dispatches >= self.epoch_events:
                self._roll()

    def _side(self, record: Dict[str, Any], span: Any) -> Dict[str, Any]:
        if span is not None and getattr(span, "is_recording", False):
            record["_trace"] = span.trace_id
            record["_span"] = span.span_id
            record["_op"] = span.name
        return record

    def record_rng(self, stream: str, method: str, value: Any) -> None:
        """One RNG draw from a named stream (``repr`` keeps floats exact)."""
        value = repr(value)
        record = {"kind": "rng", "time": self._time, "stream": stream,
                  "method": method, "value": value}
        if _PLAIN(stream) and _PLAIN(method) and _PLAIN(value):
            self._append(record,
                         '{"epoch":%r,"kind":"rng","method":"%s",'
                         '"stream":"%s","time":%r,"value":"%s"}'
                         % (self._epoch, method, stream, self._time,
                            value))
        else:
            self._append(record)

    def record_hop(self, link: str, node: str, src: str, dst: str,
                   port: int, span: Any = None) -> None:
        """One packet clearing one link hop."""
        record = self._side(
            {"kind": "hop", "time": self._time, "link": link, "node": node,
             "src": src, "dst": dst, "port": port}, span)
        if _PLAIN(link) and _PLAIN(node) and _PLAIN(src) and _PLAIN(dst):
            self._append(record,
                         '{"dst":"%s","epoch":%r,"kind":"hop",'
                         '"link":"%s","node":"%s","port":%r,"src":"%s",'
                         '"time":%r}'
                         % (dst, self._epoch, link, node, port, src,
                            self._time))
        else:
            self._append(record)

    def record_drop(self, reason: str, link: Optional[str], src: str,
                    dst: str, port: int, span: Any = None) -> None:
        """One packet drop with its attributed reason."""
        self._append(self._side(
            {"kind": "drop", "time": self._time, "reason": reason,
             "link": link, "src": src, "dst": dst, "port": port}, span))

    def record_lock(self, event: str, key: str, owner: str, mode: str,
                    style: str, span: Any = None) -> None:
        """One lock-table transition (``grant``/``release``/``revoke``)."""
        self._append(self._side(
            {"kind": "lock", "time": self._time, "event": event,
             "key": key, "owner": owner, "mode": mode, "style": style},
            span))

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
            if self._epoch_records or self._epoch_dispatches:
                self._roll()
            self._finished = True
        return len(self.epoch_digests)

    # -- reading -----------------------------------------------------------

    def epoch_records(self, epoch: int) -> List[Dict[str, Any]]:
        """The retained records of one epoch, in journal order."""
        return [record for record in self.ring
                if record.get("epoch") == epoch]

    def records(self) -> Iterator[Dict[str, Any]]:
        """JSONL rows: epoch digests first, then the retained ring."""
        for index, digest in enumerate(self.epoch_digests):
            yield {"kind": "flight-epoch", "schema": FLIGHT_SCHEMA,
                   "index": index, "digest": digest}
        for record in self.ring:
            yield record

    def stats(self) -> Dict[str, int]:
        """Journal counters (for snapshots and the black box)."""
        return {"recorded": self.recorded, "evicted": self.evicted,
                "retained": len(self.ring),
                "epochs": len(self.epoch_digests)}

    def __len__(self) -> int:
        return len(self.ring)

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

    def records(self) -> Iterator[Dict[str, Any]]:
        return iter(())

    def stats(self) -> Dict[str, int]:
        return {"recorded": 0, "evicted": 0, "retained": 0, "epochs": 0}

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


class BlackBox:
    """Post-mortem dump of the flight ring, metrics and open spans.

    Arm it around a workload (:meth:`armed`) or onto an SLO monitor
    (:meth:`arm_slo`); when the workload raises — or a burn alert of
    the configured severity fires — the last ``last`` flight records,
    the epoch digests, a metrics snapshot and every still-open span are
    written to ``path`` as one JSONL dump, readable by the report and
    dashboard CLIs.  ``flight``/``tracer``/``metrics`` default to the
    process-wide instances at dump time.
    """

    def __init__(self, path: str, flight: Any = None, tracer: Any = None,
                 metrics: Any = None, last: int = 256) -> None:
        if last <= 0:
            raise ValueError("last must be positive")
        self.path = path
        self.flight = flight
        self.tracer = tracer
        self.metrics = metrics
        self.last = last
        #: Dumps written so far (each overwrites ``path``).
        self.dumps = 0

    def dump(self, reason: str, error: Optional[BaseException] = None
             ) -> str:
        """Write the black-box JSONL dump; returns its path."""
        # Imported here: flight.py stays stdlib-only at module level so
        # the sim kernel can import it without pulling in repro.obs.
        from repro.obs.export import META_SCHEMA, span_record
        from repro.obs.metrics import get_metrics
        from repro.obs.tracer import get_tracer

        flight = self.flight if self.flight is not None else get_flight()
        tracer = self.tracer if self.tracer is not None else get_tracer()
        metrics = self.metrics if self.metrics is not None \
            else get_metrics()
        meta: Dict[str, Any] = {"kind": "meta", "schema": META_SCHEMA,
                                "black_box": True, "reason": reason,
                                "flight": flight.stats()}
        if error is not None:
            meta["error"] = "{}: {}".format(type(error).__name__, error)
        with open(self.path, "w") as handle:
            handle.write(json.dumps(meta, sort_keys=True) + "\n")
            for index, digest in enumerate(flight.epoch_digests):
                handle.write(json.dumps(
                    {"kind": "flight-epoch", "schema": FLIGHT_SCHEMA,
                     "index": index, "digest": digest},
                    sort_keys=True) + "\n")
            ring = list(flight.ring) if hasattr(flight, "ring") else []
            for record in ring[-self.last:]:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            for record in metrics.records():
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            for span in tracer.spans:
                if span.end is None:
                    record = span_record(span)
                    record["open"] = True
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
        self.dumps += 1
        return self.path

    @contextlib.contextmanager
    def armed(self):
        """Dump on any exception escaping the block, then re-raise."""
        try:
            yield self
        except BaseException as error:
            self.dump("exception", error)
            raise

    def arm_slo(self, monitor: Any, severity: str = "page") -> None:
        """Dump when ``monitor`` fires a burn alert of ``severity``.

        Chains any ``on_alert`` callback already installed on the
        monitor (the black box observes; it never swallows alerts).
        """
        previous = monitor.on_alert

        def on_alert(kind: str, alert: Any) -> None:
            if previous is not None:
                previous(kind, alert)
            if kind == "fired" and \
                    getattr(alert, "severity", None) == severity:
                self.dump("slo:{}".format(getattr(alert, "slo", "?")))

        monitor.on_alert = on_alert
