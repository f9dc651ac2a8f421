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


class Event:
    """A happening at a point in simulated time.

    An event starts *pending*, becomes *triggered* when given a value (or
    failure) and scheduled, and *processed* once its callbacks have run.
    Processes wait on events by yielding them.
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

    def defuse(self) -> "Event":
        """Mark failures of this event as handled (fire-and-forget use)."""
        self.defused = True
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        self._ok = event._ok
        self._value = event._value
        self._exception = event._exception
        self.env.schedule(self)

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
        self.callbacks.append(process._resume)
        self._ok = True
        env.schedule(self, priority=URGENT)


class Interruption(Event):
    """Internal event delivering an :class:`Interrupt` into a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        if process.triggered:
            raise SimulationError("cannot interrupt a finished process")
        if process is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        self.callbacks.append(self._interrupt)
        self._ok = False
        self._exception = Interrupt(cause)
        self.defused = True
        self.process = process
        self.env.schedule(self, priority=URGENT)

    def _interrupt(self, event: "Event") -> None:
        if self.process.triggered:
            return  # process finished in the meantime; drop the interrupt
        # Unsubscribe the process from whatever it was waiting for and
        # resume it with the interrupt exception instead.
        target = self.process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self.process._resume)
            except ValueError:
                pass
        self.process._resume(self)


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    def __init__(self, cause: Any) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        """The value the interrupter supplied."""
        return self.args[0]


class Process(Event):
    """A running generator coroutine; also an event that fires on return."""

    __slots__ = ("_generator", "_target", "span")

    def __init__(self, env: "Environment", generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                "process requires a generator, got {!r}".format(generator))
        super().__init__(env)
        self._generator = generator
        #: ``actor.run`` span when the process was named under a recording
        #: tracer (set by :meth:`Environment.process`); ``None`` otherwise.
        self.span = None
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._ok is None

    @property
    def name(self) -> str:
        """Best-effort name of the underlying generator function."""
        return getattr(self._generator, "__name__", repr(self._generator))

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process, raising :class:`Interrupt` inside it."""
        Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired event's value."""
        env = self.env
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
                env.schedule(self)
                break
            except BaseException as error:
                self._ok = False
                self._exception = error
                self.defused = False
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                error = SimulationError(
                    "process {!r} yielded a non-event: {!r}".format(
                        self.name, next_event))
                generator.close()
                self._ok = False
                self._exception = error
                env.schedule(self)
                break

            if next_event.callbacks is not None:
                # The event is still pending or triggered-but-unprocessed:
                # subscribe and stop advancing until it fires.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # The event was already processed: continue immediately with
            # its stored value / exception.
            event = next_event

        env._active_process = None


class Condition(Event):
    """An event that fires when a predicate over child events is met."""

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(self, env: "Environment", evaluate, events) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
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

    @staticmethod
    def all_events(events, count: int) -> bool:
        """Predicate: every child event has fired."""
        return len(events) == count

    @staticmethod
    def any_events(events, count: int) -> bool:
        """Predicate: at least one child event has fired."""
        return count > 0 or len(events) == 0

    def _collect_values(self) -> dict:
        return {event: event._value
                for event in self._events if event.callbacks is None}

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self.fail(event._exception)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())


class AllOf(Condition):
    """Fires when *all* of the given events have fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Fires when *any* of the given events has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events) -> None:
        super().__init__(env, Condition.any_events, events)
