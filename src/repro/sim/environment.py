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
    AllOf,
    AnyOf,
    Event,
    NORMAL,
    Process,
    Timeout,
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

    The accessor for dispatch journaling: consumers (the flight
    recorder, tests) receive unpacked values and never depend on how
    the queue stores its keys.
    """
    return key >> _PRIORITY_SHIFT, key & _EID_MASK


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` on an empty event queue."""


class StopSimulation(Exception):
    """Raised to end :meth:`Environment.run` when its until-event fires."""


class Environment:
    """A discrete-event simulation environment.

    All simulated activity in the repro library — network packets, user
    think-times, stream frames, lock waits — is driven by one environment.
    Time is a float in seconds and only advances through :meth:`run`.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
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
        # Flight recorder (repro.obs.flight): bound once at construction
        # from the process-wide default — install one with use_flight()
        # *before* creating the environment.  The import is lazy (like
        # process()'s tracer lookup) so the kernel never pulls repro.obs
        # onto its import path; flight.py itself is stdlib-only.  With
        # no recorder both attributes are None and the run loop pays one
        # identity check per event, mirroring the window hook.
        from repro.obs.flight import get_flight
        flight = get_flight()
        if flight.enabled:
            self._flight: Optional[Any] = flight
            self._flight_dispatch: Optional[Any] = flight.on_dispatch
        else:
            self._flight = None
            self._flight_dispatch = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Events ever queued: the number of :meth:`_push` calls.

        The schedule-order tiebreaker ``_eid`` increments exactly once
        per queued event — every ``_eid += 1`` is followed by the push
        it numbers — so it doubles as this counter: one less attribute
        store on every schedule.
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
        self._push(self._now + delay, _NORMAL_BASE + self._eid, event)
        return event

    def process(self, generator, name: Optional[str] = None) -> Process:
        """Start a new process from a generator.

        ``name`` optionally labels the process as an *actor* for the
        sim-time profiler (:mod:`repro.obs.profile`): while a recording
        tracer is installed, the process's whole lifetime is wrapped in
        an ``actor.run`` span (exposed as ``process.span``), so per-actor
        simulated-time accounting — and parenting of the actor's own
        spans via ``env.active_process.span`` — comes for free.  Unnamed
        processes and runs without a tracer are completely unaffected.
        """
        process = Process(self, generator)
        if name is not None:
            from repro.obs.tracer import get_tracer
            tracer = get_tracer()
            if tracer.enabled:
                span = tracer.start_span("actor.run", at=self._now,
                                         actor=name)
                process.span = span
                process.callbacks.append(
                    lambda _event: span.finish(at=self._now))
            flight = self._flight
            if flight is not None and flight.journal_actors:
                flight.record_spawn(name)
                process.callbacks.append(
                    lambda event: flight.record_exit(name, event._ok))
        return process

    def all_of(self, events) -> AllOf:
        """An event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

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
        self._push(self._now + delay,
                   (priority << _PRIORITY_SHIFT) + self._eid, event)

    def _push(self, time: float, key: int, event: Event) -> None:
        """The one enqueue: file ``event`` under its ``(time, key)`` order.

        ``key`` carries a fresh ``_eid``, so no two entries tie on
        ``(time, key)`` and the heap never compares events.  An infinite
        ``time`` sorts last like any other.
        """
        heappush(self._queue, (time, key, event))

    # -- window-boundary hook ----------------------------------------------

    def set_window_hook(self, interval: float, callback,
                        start: Optional[float] = None) -> None:
        """Call ``callback(boundary_time)`` at fixed sim-time boundaries.

        Boundaries are ``start + k*interval`` for ``k = 1, 2, ...``
        (``start`` defaults to the current time).  The hook fires from
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
        if start is not None and start != start:
            raise SimulationError(
                "window start is not a time: {!r}".format(start))
        if self._window_hook is not None:
            raise SimulationError("a window hook is already installed")
        self._window_hook = callback
        self._window_interval = float(interval)
        self._window_anchor = self._now if start is None else float(start)
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
        while self._window_next <= self._now < Infinity:
            boundary = self._window_next
            self._window_index += 1
            self._window_next = self._window_anchor \
                + self._window_index * self._window_interval
            hook(boundary)

    def peek(self) -> float:
        """Time of the next scheduled event, or infinity if none."""
        return self._queue[0][0] if self._queue else Infinity

    def step(self) -> None:
        """Process the single next event, advancing the clock to it."""
        if not self._queue:
            raise EmptySchedule("no more events")
        self._now, key, event = heappop(self._queue)
        if self._flight_dispatch is not None:
            self._flight_dispatch(self._now, key >> _PRIORITY_SHIFT,
                                  key & _EID_MASK)
        if self._now >= self._window_next:
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
        fires, returning its value).
        """
        until_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                until_event = until
            else:
                at = float(until)
                if not at >= self._now:
                    if at != at:
                        raise SimulationError("until is not a time: nan")
                    raise SimulationError(
                        "until ({}) is in the past (now={})".format(
                            at, self._now))
                until_event = Event(self)
                until_event._ok = True
                until_event._value = None
                self.schedule(until_event, priority=0, delay=at - self._now)
            if until_event.callbacks is None:
                # The event has already been processed; nothing to run.
                return until_event.value if until_event.ok else None
            until_event.callbacks.append(_stop_simulation)
        # The drain loop is step() inlined: at hundreds of thousands of
        # events per run the per-call overhead of dispatching to step()
        # is itself a measurable slice of wall time.  Behaviour
        # (counters, exception escalation, StopSimulation) is identical.
        #
        # The flight dispatch hook journals (time, priority, eid) per
        # event and drives the recorder's epoch clock, scheduling zero
        # events — replay digests are identical with or without it
        # (tests/analysis/test_replay.py asserts this).  None (the
        # default) costs one check per event.
        #
        # The processed count is batched in a local and flushed once on
        # the way out (including via exceptions): nothing observes
        # ``events_processed`` while run() is on the stack — stats() is
        # only read between runs — and the attribute store per event is
        # measurable at storm scale.
        flight_dispatch = self._flight_dispatch
        queue = self._queue
        processed = 0
        try:
            # Single-callback events — the overwhelming majority: one
            # waiter per timeout/claim — dispatch without the for-loop
            # setup.
            while queue:
                now, key, event = heappop(queue)
                self._now = now
                if flight_dispatch is not None:
                    flight_dispatch(now, key >> _PRIORITY_SHIFT,
                                    key & _EID_MASK)
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
            return stop.args[0].value if stop.args[0]._ok else None
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
            "now": self._now,
            "events_scheduled": self.events_scheduled,
            "events_processed": self.events_processed,
            "queue_depth": len(self._queue),
        }


def _stop_simulation(event: Event) -> None:
    raise StopSimulation(event)


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
