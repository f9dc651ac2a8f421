"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic generator-coroutine design: a *process* is a
generator that yields :class:`Event` objects and is resumed when the yielded
event fires.  Events carry a value (delivered as the result of the ``yield``)
or an exception (raised at the ``yield``).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment

#: Sort key priorities for events scheduled at the same instant.
URGENT = 0
NORMAL = 1


class StopSimulation(Exception):
    """Raised to end :meth:`Environment.run` when its until-event fires."""


def _stop_simulation(event: "Event") -> None:
    """The callback ``run(until=event)`` hangs on ``event``."""
    if not event._ok:
        raise event.value
    raise StopSimulation(event)


class Event:
    """A happening at a point in simulated time.

    An event starts *pending*, becomes *triggered* when given a value (or
    failure) and scheduled, and *processed* once its callbacks have run.
    Processes wait on events by yielding them.  An event handed its
    outcome while somebody waits on it (:meth:`resolve`,
    :meth:`reject`) is processed in that call and never queued.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_ok",
                 "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._ok: Optional[bool] = None
        #: Set when a failure has been handled (yielded or defused) so the
        #: environment does not escalate it at the end of the run.
        self.defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled to fire."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception for failed events)."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._exception if not self._ok else self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._exception = exception
        self.env.schedule(self)
        return self

    def resolve(self, value: Any = None) -> "Event":
        """Hand ``value`` to the event's waiters in the call.

        An event somebody waits on is processed here: its callbacks run
        before this returns and nothing is queued, so a waiter runs
        before anything else queued for this instant.  One nobody waits
        on yet is queued, exactly as :meth:`succeed` queues it.  So is
        one that ends a ``run(until=...)``: the run stops in its loop,
        not inside whatever code resolved the event.
        """
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self._hand_over()
        return self

    def reject(self, exception: BaseException) -> "Event":
        """Hand a failure to the event's waiters in the call.

        As :meth:`resolve`; a failure no waiter handled (none yielded or
        defused it) raises here, as the run loop raises it, and one
        nobody waits on yet is queued and still escalates from the run.
        """
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("reject() requires an exception instance")
        self._ok = False
        self._exception = exception
        self._hand_over()
        if self.callbacks is None and not self.defused:
            raise exception
        return self

    def _hand_over(self) -> None:
        callbacks = self.callbacks
        if not callbacks or _stop_simulation in callbacks:
            self.env.schedule(self)
            return
        self.callbacks = None
        for callback in callbacks:
            callback(self)

    def defuse(self) -> "Event":
        """Mark failures of this event as handled (fire-and-forget use)."""
        self.defused = True
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return "<{} {}>".format(type(self).__name__, state)


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float,
                 value: Any = None) -> None:
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)  # rejects negative / NaN delays


class Initialize(Event):
    """Internal event that starts a process when it is created."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks.append(process._wake)
        self._ok = True
        env.schedule(self, priority=URGENT)


class Process(Event):
    """A running generator coroutine; also an event that fires on return."""

    __slots__ = ("_generator", "span", "_wake")

    def __init__(self, env: "Environment", generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                "process requires a generator, got {!r}".format(generator))
        super().__init__(env)
        self._generator = generator
        #: ``actor.run`` span when the process was named under a recording
        #: tracer (set by :meth:`Environment.process`); ``None`` otherwise.
        self.span = None
        # The wake-up callback every wait re-arms with, bound once
        # instead of once per wait.  It refers back to the process, so
        # _resume drops it when the generator ends: a process that
        # returns is then freed by refcount, not by the cycle collector.
        self._wake = self._resume
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._ok is None

    @property
    def name(self) -> str:
        """Best-effort name of the underlying generator function."""
        return getattr(self._generator, "__name__", repr(self._generator))

    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired event's value.

        The active process it found is restored when the generator
        stops: a process resumed inside a hand-over (:meth:`Event.resolve`)
        leaves its caller (a packet's carrier, another process) active.
        """
        env = self.env
        outer = env._active_process
        env._active_process = self
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event.defused = True
                    next_event = generator.throw(event._exception)
            except StopIteration as stop:
                self._ok = True
                self._value = getattr(stop, "value", None)
                self._wake = None
                env.schedule(self)
                break
            except BaseException as error:
                self._ok = False
                self._exception = error.with_traceback(
                    error.__traceback__.tb_next)
                self._wake = None
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                error = SimulationError(
                    "process {!r} yielded a non-event: {!r}".format(
                        self.name, next_event))
                generator.close()
                self._ok = False
                self._exception = error
                self._wake = None
                env.schedule(self)
                break

            if next_event.callbacks is not None:
                # The event is still pending or triggered-but-unprocessed:
                # subscribe and stop advancing until it fires.
                next_event.callbacks.append(self._wake)
                break
            # The event was already processed: continue immediately with
            # its stored value / exception.
            event = next_event

        env._active_process = outer


class AnyOf(Event):
    """Fires when *any* of the given events has fired (at once if none).

    Its value maps each child that has fired to its value; the first
    child to fail fails it.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events) -> None:
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events from different environments")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._exception)
        else:
            self.succeed({child: child._value for child in self._events
                          if child.callbacks is None})
