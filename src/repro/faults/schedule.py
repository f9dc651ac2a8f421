"""Declarative, deterministic fault schedules and their injector.

A :class:`FaultSchedule` is a plain list of timed :class:`FaultEvent`
records — node crashes and restarts, link cuts, flaps, network
partitions, latency storms and loss bursts — built through chainable
helper methods.  A :class:`FaultInjector` executes the schedule against
a :class:`~repro.net.network.Network` as one simulation process.

Determinism is the design centre: events fire at declared simulated
times in declared order, flaps and timed impairments are expanded into
explicit event pairs when the schedule is *built* (not when it runs),
and the whole schedule serialises via :meth:`FaultSchedule.to_dict` so a
replay digest covers exactly the faults that were injected.  The same
seed plus the same schedule therefore yields a byte-identical run, and
with no schedule installed nothing in this module ever executes.

Every injected event emits a ``fault.<kind>`` span and a
``fault.injected`` counter through :mod:`repro.obs`, so chaos runs are
first-class citizens of the tracing/report pipeline.
"""

from __future__ import annotations

import contextlib
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

#: Event kinds understood by the injector.
KINDS = (
    "link-down", "link-up",
    "partition", "heal",
    "node-crash", "node-restart",
    "latency-storm", "latency-calm",
    "loss-burst", "loss-calm",
)

#: Required parameter names (beyond ``at``/``kind``) per event kind,
#: used by :meth:`FaultEvent.from_dict` validation.  Optional keys are
#: parenthesised in the error text only, never required.
_REQUIRED_PARAMS = {
    "link-down": ("a", "b"),
    "link-up": ("a", "b"),
    "partition": ("name", "groups"),
    "heal": ("name",),
    "node-crash": ("node",),
    "node-restart": ("node",),
    "latency-storm": ("scale", "links"),
    "latency-calm": ("scale", "links"),
    "loss-burst": ("extra_loss", "links"),
    "loss-calm": ("extra_loss", "links"),
}

#: Lifting counterpart of each "onset" kind (used by balance checks and
#: the shrinker's gap reduction), and the onset each lift closes.
LIFT_KINDS = {
    "link-down": "link-up",
    "partition": "heal",
    "node-crash": "node-restart",
    "latency-storm": "latency-calm",
    "loss-burst": "loss-calm",
}
ONSET_KINDS = {lift: onset for onset, lift in LIFT_KINDS.items()}


class FaultEvent:
    """One timed fault: ``(at, kind, params)`` with a stable tie-break."""

    __slots__ = ("at", "kind", "params", "seq")

    def __init__(self, at: float, kind: str,
                 params: Dict[str, Any], seq: int) -> None:
        if not (_is_number(at) and 0 <= at < math.inf):
            raise SimulationError(
                "at must be a finite non-negative time: {!r}".format(at))
        if kind not in KINDS:
            raise SimulationError("unknown fault kind: " + kind)
        self.at = at
        self.kind = kind
        self.params = params
        self.seq = seq

    @property
    def sort_key(self) -> Tuple[float, int]:
        return (self.at, self.seq)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe record (feeds the replay digest)."""
        record: Dict[str, Any] = {"at": self.at, "kind": self.kind}
        record.update({key: self.params[key]
                       for key in sorted(self.params)})
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any], seq: int = 0
                  ) -> "FaultEvent":
        """The inverse of :meth:`to_dict`, validating as it parses.

        Raises :class:`~repro.errors.SimulationError` naming the
        offending event (``event <seq> (<kind> @<at>): <problem>``) so a
        bad corpus file points straight at the record to fix.
        """
        if not isinstance(record, dict):
            raise SimulationError(
                "event {}: expected an object, got {}".format(
                    seq, type(record).__name__))
        label = "event {} ({} @{})".format(
            seq, record.get("kind", "?"), record.get("at", "?"))
        at = record.get("at")
        if not (_is_number(at) and 0 <= at < math.inf):
            raise SimulationError(
                label + ": 'at' must be a finite non-negative number")
        kind = record.get("kind")
        if kind not in KINDS:
            raise SimulationError(
                "{}: unknown kind {!r} (known: {})".format(
                    label, kind, ", ".join(KINDS)))
        params = {key: value for key, value in record.items()
                  if key not in ("at", "kind")}
        for name in _REQUIRED_PARAMS[kind]:
            if name not in params:
                raise SimulationError(
                    "{}: missing required param {!r}".format(label, name))
        _validate_params(label, kind, params)
        return cls(float(at), kind, params, seq)

    def __repr__(self) -> str:
        return "<FaultEvent {} @{:g} {}>".format(
            self.kind, self.at, self.params)


class FaultSchedule:
    """A buildable, serialisable list of fault events.

    Helper methods append events; durations and flap counts expand into
    explicit paired events immediately, so the executed sequence is
    fully visible in :meth:`to_dict` before the run starts.
    """

    def __init__(self) -> None:
        self.events: List[FaultEvent] = []
        self._seq = 0

    def _add(self, at: float, kind: str, **params: Any) -> "FaultSchedule":
        self.events.append(FaultEvent(at, kind, params, self._seq))
        self._seq += 1
        return self

    # -- links --------------------------------------------------------------

    def link_down(self, at: float, a: str, b: str,
                  up_at: Optional[float] = None) -> "FaultSchedule":
        """Cut the ``a``–``b`` link (optionally restoring at ``up_at``)."""
        self._add(at, "link-down", a=a, b=b)
        if up_at is not None:
            _after(at, up_at=up_at)
            self._add(up_at, "link-up", a=a, b=b)
        return self

    def link_flap(self, at: float, a: str, b: str, count: int,
                  period: float) -> "FaultSchedule":
        """``count`` down/up cycles of length ``period`` (half down,
        half up), starting at ``at`` — expanded into explicit events."""
        if isinstance(count, bool) or not isinstance(count, int) \
                or count < 1:
            raise SimulationError(
                "count must be an integer >= 1: {!r}".format(count))
        _positive(period=period)
        for i in range(count):
            start = at + i * period
            self._add(start, "link-down", a=a, b=b, flap=i)
            self._add(start + period / 2.0, "link-up", a=a, b=b, flap=i)
        return self

    # -- partitions ---------------------------------------------------------

    def partition(self, at: float, groups: Sequence[Sequence[str]],
                  name: str = "partition",
                  heal_at: Optional[float] = None) -> "FaultSchedule":
        """Split the network: every link crossing between two of the
        ``groups`` goes down; ``heal_at`` reverses exactly the links
        this partition cut."""
        problem = _groups_problem(groups)
        if problem:
            raise SimulationError("groups " + problem)
        self._add(at, "partition", name=name,
                  groups=[sorted(group) for group in groups])
        if heal_at is not None:
            _after(at, heal_at=heal_at)
            self._add(heal_at, "heal", name=name)
        return self

    # -- nodes --------------------------------------------------------------

    def node_crash(self, at: float, node: str,
                   restart_at: Optional[float] = None) -> "FaultSchedule":
        """Fail-stop ``node`` from the network's point of view: every
        adjacent link goes down (its local processes keep running — their
        packets simply stop arriving, which is what a remote observer of
        a crashed node actually sees)."""
        self._add(at, "node-crash", node=node)
        if restart_at is not None:
            _after(at, restart_at=restart_at)
            self._add(restart_at, "node-restart", node=node)
        return self

    # -- impairments --------------------------------------------------------

    def latency_storm(self, at: float, scale: float, duration: float,
                      links: Optional[Sequence[Tuple[str, str]]] = None
                      ) -> "FaultSchedule":
        """Multiply propagation latency by ``scale`` on ``links`` (all
        links when ``None``) for ``duration`` seconds."""
        _positive(scale=scale, duration=duration)
        targets = self._targets(links)
        self._add(at, "latency-storm", scale=scale, links=targets)
        self._add(at + duration, "latency-calm", scale=scale,
                  links=targets)
        return self

    def loss_burst(self, at: float, extra_loss: float, duration: float,
                   links: Optional[Sequence[Tuple[str, str]]] = None
                   ) -> "FaultSchedule":
        """Add ``extra_loss`` drop probability on ``links`` (all when
        ``None``) for ``duration`` seconds."""
        if not 0 < extra_loss < 1:
            raise SimulationError("extra_loss must be in (0, 1)")
        _positive(duration=duration)
        targets = self._targets(links)
        self._add(at, "loss-burst", extra_loss=extra_loss, links=targets)
        self._add(at + duration, "loss-calm", extra_loss=extra_loss,
                  links=targets)
        return self

    @staticmethod
    def _targets(links: Optional[Sequence[Tuple[str, str]]]
                 ) -> Optional[List[List[str]]]:
        if links is None:
            return None
        return [sorted((a, b)) for a, b in links]

    # -- introspection ------------------------------------------------------

    def ordered(self) -> List[FaultEvent]:
        """Events in execution order (time, then declaration order)."""
        return sorted(self.events, key=lambda event: event.sort_key)

    def to_dict(self) -> Dict[str, Any]:
        """A canonical JSON-safe form for replay digests."""
        return {"events": [event.to_dict() for event in self.ordered()]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSchedule":
        """Rebuild a schedule from its :meth:`to_dict` form.

        Round-trip stable: ``s.from_dict(d).to_dict() == d`` for any
        canonical ``d`` (events already in execution order).  Validation
        errors name the offending event.
        """
        if not isinstance(data, dict) or "events" not in data:
            raise SimulationError(
                "schedule must be an object with an 'events' list")
        events = data["events"]
        if not isinstance(events, list):
            raise SimulationError("'events' must be a list")
        schedule = cls()
        for index, record in enumerate(events):
            schedule.events.append(FaultEvent.from_dict(record, index))
            schedule._seq = index + 1
        return schedule

    def balanced(self) -> bool:
        """True when every onset event has a matching lift after it.

        Link cuts need a later ``link-up`` for the same pair, crashes a
        restart, partitions a heal, impairments their calm — the
        precondition of a recovery invariant ("after everything healed,
        the system must converge").
        """
        pending: Dict[Tuple[Any, ...], int] = {}
        for event in self.ordered():
            if event.kind in LIFT_KINDS:
                key = pair_key(event.kind, event.params)
                pending[key] = pending.get(key, 0) + 1
            else:
                key = pair_key(ONSET_KINDS[event.kind], event.params)
                if pending.get(key, 0) > 0:
                    pending[key] -= 1
        return not any(count > 0 for count in pending.values())

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return "<FaultSchedule events={}>".format(len(self.events))


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive(**values: float) -> None:
    """Reject a builder argument that is not a positive finite number
    (NaN passes ``x <= 0``), naming it."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise SimulationError(
                "{} must be a positive finite number: {!r}".format(
                    name, value))


def _after(at: float, **lift: float) -> None:
    """Reject a lift time that is not a finite time after ``at``."""
    for name, value in lift.items():
        if not at < value < math.inf:
            raise SimulationError(
                "{} must be a finite time after at: {!r}".format(name, value))


def _groups_problem(groups: Any) -> Optional[str]:
    """Why ``groups`` cannot be a partition's groups, or ``None``.

    A bare string is a sequence of characters, not of node names, and a
    node in two groups has no side; either would cut links other than
    the ones named, so both are rejected before the run starts.
    """
    if not isinstance(groups, (list, tuple)) or len(groups) < 2:
        return "must be a list of at least two groups: {!r}".format(groups)
    seen = set()
    for group in groups:
        if not isinstance(group, (list, tuple)) or not group \
                or not all(isinstance(node, str) for node in group):
            return "must be non-empty lists of node names: {!r}".format(
                group)
        for node in group:
            if node in seen:
                return "must be disjoint: {!r} is in two groups".format(node)
            seen.add(node)
    return None


def _validate_params(label: str, kind: str, params: Dict[str, Any]) -> None:
    """Per-kind parameter validation for :meth:`FaultEvent.from_dict`."""
    def fail(problem: str) -> None:
        raise SimulationError("{}: {}".format(label, problem))

    for name in ("a", "b", "node", "name"):
        if name in params and not isinstance(params[name], str):
            fail("param {!r} must be a string".format(name))
    if kind == "partition":
        problem = _groups_problem(params["groups"])
        if problem:
            fail("'groups' " + problem)
    if "scale" in params and not (_is_number(params["scale"])
                                  and 0 < params["scale"] < math.inf):
        fail("'scale' must be a positive finite number")
    if "extra_loss" in params \
            and (not _is_number(params["extra_loss"])
                 or not 0 < params["extra_loss"] < 1):
        fail("'extra_loss' must be a number in (0, 1)")
    if "links" in params and params["links"] is not None:
        links = params["links"]
        if not isinstance(links, list):
            fail("'links' must be null (all links) or a list of pairs")
        for pair in links:
            if not isinstance(pair, list) or len(pair) != 2 \
                    or not all(isinstance(end, str) for end in pair):
                fail("every link target must be a [a, b] pair "
                     "of node names")
    if "flap" in params and not isinstance(params["flap"], int):
        fail("'flap' must be an integer cycle index")


def _canon_links(links: Any) -> Any:
    if links is None:
        return None
    return tuple(tuple(pair) for pair in links)


def pair_key(onset_kind: str, params: Dict[str, Any]) -> Tuple[Any, ...]:
    """The identity an onset shares with its lifting counterpart.

    ``params`` may be an event's params or its whole ``to_dict`` record
    (the shrinker pairs those).
    """
    if onset_kind == "link-down":
        return ("link",) + tuple(sorted((params["a"], params["b"])))
    if onset_kind == "partition":
        return ("partition", params["name"])
    if onset_kind == "node-crash":
        return ("node", params["node"])
    if onset_kind == "latency-storm":
        return ("latency", params["scale"], _canon_links(params["links"]))
    return ("loss", params["extra_loss"], _canon_links(params["links"]))


#: The schedule override of the run in progress: when set, every new
#: :class:`FaultInjector` passes ``(network, schedule)`` through the
#: factory and executes what it returns instead.  This is the fuzzer's
#: injection point — a campaign swaps a workload's hand-written
#: schedule for a generated candidate without the workload knowing.
#: Only :func:`repro.run.run` sets it, from ``RunSpec.schedule``.
_schedule_override: Optional[Callable[..., "FaultSchedule"]] = None


@contextlib.contextmanager
def _use_override(factory: Callable[..., "FaultSchedule"]):
    """Scope ``factory`` as the schedule override, restoring on exit."""
    global _schedule_override
    previous, _schedule_override = _schedule_override, factory
    try:
        yield factory
    finally:
        _schedule_override = previous


class FaultInjector:
    """Executes a :class:`FaultSchedule` against a network.

    Link state is reference-counted: a link cut by both a partition and
    a node crash stays down until *both* faults lift, so overlapping
    faults compose instead of cancelling.  Crashes of one node nest the
    same way: each restart lifts one crash.  Every executed event lands in
    :attr:`log` (JSON-safe, for workload results), emits a
    ``fault.<kind>`` span and counts in ``fault.injected``.
    """

    def __init__(self, env, network, schedule: FaultSchedule,
                 name: str = "fault-injector") -> None:
        self.env = env
        self.network = network
        if _schedule_override is not None:
            schedule = _schedule_override(network, schedule)
        self.schedule = schedule
        self.name = name
        self.log: List[Dict[str, Any]] = []
        self._down_counts: Dict[Tuple[str, str], int] = {}
        self._partitions: Dict[str, List[Tuple[str, str]]] = {}
        #: Per node, the links each of its open crashes took down.
        self._crashed: Dict[str, List[List[Tuple[str, str]]]] = {}
        self.process = env.process(self._run(), name=name)

    @property
    def links_down(self) -> int:
        """Links currently held down by the injector."""
        return sum(1 for count in self._down_counts.values() if count > 0)

    # -- internals ----------------------------------------------------------

    def _run(self):
        tracer = self.env.tracer
        metrics = self.env.metrics
        for event in self.schedule.ordered():
            if event.at > self.env.now:
                yield self.env.timeout(event.at - self.env.now)
            span = tracer.start_span(
                "fault." + event.kind, at=self.env.now,
                injector=self.name, **_span_attrs(event))
            affected = self._execute(event)
            metrics.counter("fault.injected", kind=event.kind).add()
            metrics.gauge("fault.links_down").set(
                self.links_down, at=self.env.now)
            span.set_attribute("links_affected", affected)
            span.finish(at=self.env.now)
            entry = {"at": self.env.now, "kind": event.kind,
                     "links_affected": affected}
            entry.update(_span_attrs(event))
            self.log.append(entry)

    def _execute(self, event: FaultEvent) -> int:
        kind = event.kind
        params = event.params
        if kind == "link-down":
            return self._down([(params["a"], params["b"])])
        if kind == "link-up":
            return self._up([(params["a"], params["b"])])
        if kind == "partition":
            crossing = self._crossing_links(params["groups"])
            self._partitions[params["name"]] = crossing
            return self._down(crossing)
        if kind == "heal":
            crossing = self._partitions.pop(params["name"], [])
            return self._up(crossing)
        if kind == "node-crash":
            adjacent = self._adjacent_links(params["node"])
            self._crashed.setdefault(params["node"], []).append(adjacent)
            return self._down(adjacent)
        if kind == "node-restart":
            crashes = self._crashed.get(params["node"], [])
            return self._up(crashes.pop() if crashes else [])
        if kind == "latency-storm":
            return self._impair(params["links"],
                                latency_scale=params["scale"])
        if kind == "latency-calm":
            return self._relieve(params["links"],
                                 latency_scale=params["scale"])
        if kind == "loss-burst":
            return self._impair(params["links"],
                                extra_loss=params["extra_loss"])
        if kind == "loss-calm":
            return self._relieve(params["links"],
                                 extra_loss=params["extra_loss"])
        raise SimulationError("unhandled fault kind: " + kind)

    # -- link-state bookkeeping ---------------------------------------------

    def _key(self, a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a < b else (b, a)

    def _down(self, pairs: Sequence[Tuple[str, str]]) -> int:
        topology = self.network.topology
        for a, b in pairs:
            key = self._key(a, b)
            self._down_counts[key] = self._down_counts.get(key, 0) + 1
            topology.link_between(a, b).set_up(False)
        if pairs:
            topology.invalidate_routes()
        return len(pairs)

    def _up(self, pairs: Sequence[Tuple[str, str]]) -> int:
        topology = self.network.topology
        for a, b in pairs:
            key = self._key(a, b)
            count = self._down_counts.get(key, 0)
            if count <= 1:
                self._down_counts.pop(key, None)
                topology.link_between(a, b).set_up(True)
            else:
                self._down_counts[key] = count - 1
        if pairs:
            topology.invalidate_routes()
        return len(pairs)

    def _impair(self, targets, latency_scale: float = 1.0,
                extra_loss: float = 0.0) -> int:
        links = self._resolve(targets)
        for link in links:
            link.impair(latency_scale=latency_scale,
                        extra_loss=extra_loss)
        return len(links)

    def _relieve(self, targets, latency_scale: float = 1.0,
                 extra_loss: float = 0.0) -> int:
        links = self._resolve(targets)
        for link in links:
            link.relieve(latency_scale=latency_scale,
                         extra_loss=extra_loss)
        return len(links)

    def _resolve(self, targets) -> List[Any]:
        if targets is None:
            return sorted(self.network.topology.links(),
                          key=lambda link: (link.a, link.b))
        return [self.network.topology.link_between(a, b)
                for a, b in targets]

    def _crossing_links(self, groups: Sequence[Sequence[str]]
                        ) -> List[Tuple[str, str]]:
        membership = {node: index for index, group in enumerate(groups)
                      for node in group}
        crossing: List[Tuple[str, str]] = []
        for link in sorted(self.network.topology.links(),
                           key=lambda link: (link.a, link.b)):
            side_a = membership.get(link.a)
            side_b = membership.get(link.b)
            if side_a is not None and side_b is not None \
                    and side_a != side_b:
                crossing.append((link.a, link.b))
        return crossing

    def _adjacent_links(self, node: str) -> List[Tuple[str, str]]:
        topology = self.network.topology
        return [(node, peer) if node < peer else (peer, node)
                for peer in sorted(topology.neighbours(node))]

    def __repr__(self) -> str:
        return "<FaultInjector {} events={} links_down={}>".format(
            self.name, len(self.schedule), self.links_down)


def _span_attrs(event: FaultEvent) -> Dict[str, Any]:
    """Small, JSON-safe span/log attributes for one event."""
    attrs: Dict[str, Any] = {}
    for key in sorted(event.params):
        value = event.params[key]
        if key == "groups":
            attrs["groups"] = "|".join(",".join(g) for g in value)
        elif key == "links":
            attrs["links"] = "all" if value is None else len(value)
        elif key == "name":
            # Avoid colliding with start_span's positional span name.
            attrs["fault_name"] = value
        else:
            attrs[key] = value
    return attrs
