"""The simulation environment: clock, event queue and run loop.

The event queue is one list of ``(time, key, event)`` entries kept as
a binary heap by :mod:`heapq`, ``key`` packing ``(priority, eid)`` into
one int.  Events dispatch in strict ``(time, priority, eid)`` order —
``eid`` being the schedule order, so ``(time, key)`` is unique and two
events are never compared — and every enqueue goes through
:meth:`Environment._push`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import (
    AnyOf,
    Event,
    NORMAL,
    Process,
    StopSimulation,
    Timeout,
    _stop_simulation,
)

Infinity = float("inf")

# Pre-bound allocator for Environment.timeout's fast path.
_new_timeout = Timeout.__new__

# Queue entries pack (priority, eid) into one int key: priority in the
# high bits, the schedule-order tiebreaker below — priority dominates,
# then insertion order.
_PRIORITY_SHIFT = 48
_NORMAL_BASE = NORMAL << _PRIORITY_SHIFT
_EID_MASK = (1 << _PRIORITY_SHIFT) - 1


def dispatch_parts(key: int) -> Tuple[int, int]:
    """Split a packed queue key into ``(priority, eid)``.

    The accessor for code outside the kernel that reads or refiles
    queue keys (the tests' counting and tie-shuffling environments), so
    it never depends on how the queue packs them.
    """
    return key >> _PRIORITY_SHIFT, key & _EID_MASK


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` on an empty event queue."""


class Environment:
    """A discrete-event simulation environment.

    All simulated activity in the repro library — network packets, user
    think-times, stream frames, lock waits — is driven by one environment.
    Time is a float in seconds and only advances through :meth:`run`.

    It also owns the run's observers: :attr:`metrics` (the registry),
    :attr:`tracer`, :attr:`sanitizer` and the flight recorder, taken
    from the ambient ``use_X`` scopes when it is built.  Every layer
    that holds the environment records into these.
    """

    def __init__(self) -> None:
        #: Current simulated time in seconds, from 0: written by run()
        #: and step() only, read by everything that holds the environment.
        self.now = 0.0
        self._eid = 0
        self._active_process: Optional[Process] = None
        # The heap of pending ``(time, key, event)`` entries.
        self._queue: List[Tuple[float, int, Event]] = []
        # Entries popped off the queue: a plain int so the hot path
        # stays cheap, written here and by step()/run() only.
        # (events_scheduled is the schedule-order tiebreaker ``_eid``,
        # which advances once per _push by construction.)
        self.events_processed = 0
        # Window-boundary hook (see set_window_hook): fired from inside
        # the event loop when the clock reaches each boundary, without
        # scheduling any events — a run dispatches the same events with
        # or without a hook installed.  With no hook, ``_window_next``
        # is infinity and the loop pays one float compare per event.
        self._window_hook: Optional[Any] = None
        self._window_interval = 0.0
        self._window_anchor = 0.0
        self._window_index = 0
        self._window_next = Infinity
        # (time, priority) -> Batch open to calls while _eid is _batch_mark.
        self._batches: dict = {}
        self._batch_mark = -1
        # The observers: the one place they are bound.  Each is read
        # once, from the ambient default (``use_X`` scopes it), and every
        # layer that holds this environment records into these, whatever
        # is ambient later.  The imports are lazy so the kernel never
        # pulls repro.obs or repro.analysis onto its import path.  The
        # flight recorder stays None when disabled, as the hot paths
        # test for; it reads this environment's clock once step() or
        # run() has attached it, and the run loop never calls it.
        from repro.analysis.hb import get_sanitizer
        from repro.obs.flight import get_flight
        from repro.obs.metrics import get_metrics
        from repro.obs.tracer import get_tracer
        self.metrics = get_metrics()
        self.tracer = get_tracer()
        self.sanitizer = get_sanitizer()
        flight = get_flight()
        self._flight: Optional[Any] = flight if flight.enabled else None

    @property
    def events_scheduled(self) -> int:
        """Events ever queued: the number of :meth:`_push` calls.

        The schedule-order tiebreaker ``_eid`` increments exactly once
        per queued event — every ``_eid += 1`` is followed by one push,
        a yielding batch's under its old key — so it doubles as this
        counter: one less attribute store on every schedule.
        """
        return self._eid

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being advanced, if any."""
        return self._active_process

    # -- event factories --------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    # repro: fast-path — the kernel's hottest allocation site; no
    # blocking claims here (repro.analysis.protocol enforces RPR204).
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now.

        This is the kernel's hottest allocation site (one per frame,
        think-gap and retry timer), so the event is built field-by-field
        — observably identical to ``Timeout(...)``, which costs
        ``media-conference`` 8 % ``wall_s`` when used here instead.
        """
        if not delay >= 0:
            raise SimulationError(_bad_delay(delay))
        event = _new_timeout(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._exception = None
        event._ok = True
        event.defused = False
        event.delay = delay
        self._eid += 1
        self._push(self.now + delay, _NORMAL_BASE + self._eid, event)
        return event

    def batch(self, delay: float, callback, value: Any = None,
              priority: int = NORMAL) -> None:
        """Call ``callback(value)`` ``delay`` seconds from now, exactly
        where a timeout queued here would.  While nothing else has been
        queued since the last call for that instant and priority, their
        timeouts would sit side by side: this call joins its
        :class:`Batch` and queues nothing."""
        if not delay >= 0:
            raise SimulationError(_bad_delay(delay))
        at = self.now + delay
        if self._eid != self._batch_mark:
            self._batches = {}
        batch = self._batches.get((at, priority))
        if batch is None or batch.callbacks is None:   # none, or popped
            self._eid += 1
            batch = self._batches[at, priority] = Batch(
                self, at, (priority << _PRIORITY_SHIFT) + self._eid)
            self._batch_mark = self._eid
        batch.items.append((callback, value))

    def process(self, generator, name: Optional[str] = None) -> Process:
        """Start a new process from a generator.

        ``name`` optionally labels the process as an *actor* for the
        sim-time profiler (:mod:`repro.obs.profile`): under a recording
        tracer, the process's whole lifetime is wrapped in an
        ``actor.run`` span (exposed as ``process.span``), so per-actor
        simulated-time accounting — and parenting of the actor's own
        spans via ``env.active_process.span`` — comes for free.  Unnamed
        processes and runs without a tracer are completely unaffected.
        """
        process = Process(self, generator)
        if name is not None:
            tracer = self.tracer
            if tracer.enabled:
                span = tracer.start_span("actor.run", at=self.now,
                                         actor=name)
                process.span = span
                process.callbacks.append(
                    lambda _event: span.finish(at=self.now))
            flight = self._flight
            if flight is not None:
                flight.record_spawn(name)
                process.callbacks.append(
                    lambda event: flight.record_exit(name, event._ok))
        return process

    def any_of(self, events) -> AnyOf:
        """An event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        """Queue ``event`` to fire ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(_bad_delay(delay))
        self._eid += 1
        self._push(self.now + delay,
                   (priority << _PRIORITY_SHIFT) + self._eid, event)

    def _push(self, time: float, key: int, event: Event) -> None:
        """The one enqueue: file ``event`` under its ``(time, key)`` order.

        ``key`` carries a fresh ``_eid``, so no two entries tie on
        ``(time, key)`` and the heap never compares events.  An infinite
        ``time`` sorts last like any other.
        """
        heappush(self._queue, (time, key, event))

    # -- window-boundary hook ----------------------------------------------

    def set_window_hook(self, interval: float, callback) -> None:
        """Call ``callback(boundary_time)`` at fixed sim-time boundaries.

        Boundaries are ``now + k*interval`` for ``k = 1, 2, ...``, with
        ``now`` the time of installation.  The hook fires from
        inside the event loop, *before* the callbacks of the event that
        reached the boundary run, so a flush at boundary ``B`` observes
        exactly the effects of events with ``t < B`` — a deterministic
        cut of the timeline.  No events are scheduled on its behalf:
        the queue holds the same entries, in the same order, with or
        without a hook, which is what keeps timeline recording from
        changing the run it records.  The callback must not advance the
        clock; scheduling new events from it is allowed but defeats
        that invisibility.

        Only one hook may be installed at a time (the timeline recorder
        owns it); installing over an existing one raises.
        """
        if not interval > 0:  # also rejects NaN
            raise SimulationError(
                "window interval must be positive: {!r}".format(interval))
        if self._window_hook is not None:
            raise SimulationError("a window hook is already installed")
        self._window_hook = callback
        self._window_interval = float(interval)
        self._window_anchor = self.now
        self._window_index = 1
        self._window_next = self._window_anchor + self._window_interval

    def clear_window_hook(self) -> None:
        """Uninstall the window hook (idempotent)."""
        self._window_hook = None
        self._window_interval = 0.0
        self._window_anchor = 0.0
        self._window_index = 0
        self._window_next = Infinity

    def _fire_window_hook(self) -> None:
        """Fire the hook for every boundary the clock has reached.

        Boundaries are computed as ``anchor + index*interval`` (not by
        repeated addition), so long runs do not accumulate float drift.
        An event at infinity fires none: it gets here with no hook
        installed (``inf >= inf``), and with one there is no last
        boundary to stop at.
        """
        hook = self._window_hook
        while self._window_next <= self.now < Infinity:
            boundary = self._window_next
            self._window_index += 1
            self._window_next = self._window_anchor \
                + self._window_index * self._window_interval
            hook(boundary)

    def peek(self) -> float:
        """Time of the next scheduled event, or infinity if none."""
        return self._queue[0][0] if self._queue else Infinity

    def _attach_flight(self) -> None:
        """Make the bound flight recorder read this environment's clock."""
        flight = self._flight
        if flight is not None and flight._env is not self:
            flight.attach(self)

    def step(self) -> None:
        """Process the single next event, advancing the clock to it."""
        self._attach_flight()
        if not self._queue:
            raise EmptySchedule("no more events")
        self.now, _, event = heappop(self._queue)
        if self.now >= self._window_next:
            self._fire_window_hook()
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event.defused:
            raise event._exception

    # repro: fast-path — the drain loop below is step() inlined; no
    # blocking claims here (repro.analysis.protocol enforces RPR204).
    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue is empty), a number
        (run until that simulated time) or an :class:`Event` (run until it
        fires, returning its value or raising its exception).
        """
        self._attach_flight()
        until_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                until_event = until
            else:
                at = float(until)
                if not at >= self.now:
                    if at != at:
                        raise SimulationError("until is not a time: nan")
                    raise SimulationError(
                        "until ({}) is in the past (now={})".format(
                            at, self.now))
                until_event = Event(self)
                until_event._ok = True
                until_event._value = None
                self.schedule(until_event, priority=0, delay=at - self.now)
            if until_event.callbacks is None:
                # The event has already been processed; nothing to run.
                if not until_event.ok:
                    raise until_event.value
                return until_event.value
            until_event.callbacks.append(_stop_simulation)
        # The drain loop is step() inlined: at hundreds of thousands of
        # events per run the per-call overhead of dispatching to step()
        # is itself a measurable slice of wall time.  Behaviour
        # (counters, exception escalation, StopSimulation) is identical.
        #
        # The processed count is batched in a local and flushed once on
        # the way out (including via exceptions): nothing observes
        # ``events_processed`` while run() is on the stack — stats() is
        # only read between runs — and the attribute store per event is
        # measurable at storm scale.
        queue = self._queue
        processed = 0
        try:
            # Single-callback events — the overwhelming majority: one
            # waiter per timeout/claim — dispatch without the for-loop
            # setup.
            while queue:
                now, _, event = heappop(queue)
                self.now = now
                if now >= self._window_next:
                    self._fire_window_hook()
                processed += 1
                callbacks, event.callbacks = event.callbacks, None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if event._ok is False and not event.defused:
                    raise event._exception
        except StopSimulation as stop:
            return stop.args[0].value
        finally:
            self.events_processed += processed
        if until_event is not None and not until_event.triggered:
            raise SimulationError(
                "simulation ran out of events before 'until' fired")
        return None

    # -- convenience -------------------------------------------------------

    def stats(self) -> dict:
        """Event-loop counters (for the observability snapshot)."""
        return {
            "now": self.now,
            "events_scheduled": self.events_scheduled,
            "events_processed": self.events_processed,
            "queue_depth": len(self._queue),
        }


class Batch(Event):
    """One queued event for same-instant calls, made in call order.  A
    call that queues an event to run first at this instant (a process
    start, a packet sent with no active process) or that raises makes
    it queue the rest under its own key again and yield."""

    __slots__ = ("items", "_at", "_key")

    def __init__(self, env: Environment, at: float, key: int) -> None:
        super().__init__(env)
        self._ok, self.items, self._at, self._key = True, [], at, key
        self.callbacks.append(self._run)
        env._push(at, key, self)

    def _run(self, _event: Event) -> None:
        queue, items, done = self.env._queue, self.items, 0
        ahead = self._key & ~_EID_MASK   # a key below this beats ours
        try:
            for callback, value in items:
                done += 1
                callback(value)
                if queue and queue[0][1] < ahead and queue[0][0] == self._at:
                    break
        finally:
            if done < len(items):
                self.items, self.callbacks = items[done:], [self._run]
                self.env._eid += 1
                self.env._push(self._at, self._key, self)


def _bad_delay(delay: Any) -> str:
    """The error text for a delay that failed ``delay >= 0``."""
    if delay != delay:
        return "delay is not a time: {!r}".format(delay)
    return "negative delay: {!r}".format(delay)


def drive(root_factory, until: Any = None) -> Any:
    """Run a fresh environment around a single root process.

    ``root_factory`` is called with the new environment and must return a
    generator, which becomes the root process.  Returns that process's
    return value (or ``None`` if ``until`` cut the run short).
    """
    env = Environment()
    proc = env.process(root_factory(env))
    env.run(proc if until is None else until)
    return proc.value if proc.triggered and proc.ok else None
