"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence that other processes can wait on.
Events move through the states *pending* -> *triggered* -> *processed*: a
triggered event has a value (or an exception) and sits in the simulation
queue; a processed event has had its callbacks run.

:class:`Process` wraps a generator.  The generator advances by yielding
events; when a yielded event is processed the generator is resumed with the
event's value (or the event's exception is thrown into it).  A process is
itself an event that triggers when its generator finishes, which is what makes
``yield sim.process(...)`` composition work.

Every simulated hop that another event could overtake is one event (see
``Simulation.hold`` for the ones that are not), so the per-event path is
kept lean: the classes are slotted, default labels are formatted only by
``repr``, and hot state checks compare ``_status`` with the module aliases
below instead of going through the ``triggered``/``processed`` properties.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Iterable, List, Optional


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double triggering, bad yields...)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupts.

    The ``cause`` attribute carries whatever object the interrupter supplied,
    typically a short reason string or a fault descriptor.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class EventStatus(enum.Enum):
    """Lifecycle states of an :class:`Event`."""

    PENDING = "pending"
    TRIGGERED = "triggered"
    PROCESSED = "processed"


_PENDING = EventStatus.PENDING
_TRIGGERED = EventStatus.TRIGGERED
_PROCESSED = EventStatus.PROCESSED


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        The owning :class:`repro.sim.engine.Simulation`.
    name:
        Optional label used in ``repr`` and error messages.  Without one,
        ``repr`` falls back to :meth:`_label`, which subclasses override to
        format a default label only when it is shown.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_exception",
                 "_status", "defused", "cancelled")

    def __init__(self, sim, name: Optional[str] = None):
        self.sim = sim
        self.name = name
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._status = _PENDING
        self.defused = False
        self.cancelled = False

    # -- state inspection ---------------------------------------------------

    @property
    def status(self) -> EventStatus:
        return self._status

    @property
    def triggered(self) -> bool:
        return self._status is not EventStatus.PENDING

    @property
    def processed(self) -> bool:
        return self._status is EventStatus.PROCESSED

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        self._trigger(value=value)
        return self

    def cancel(self) -> "Event":
        """Withdraw a scheduled event before it is processed.

        A cancelled event never runs its callbacks: the engine discards its
        queue entry lazily (at the heap top, or in a bulk compaction when
        cancelled entries come to dominate the heap), so cancellation is
        O(1) and sustained cancellation cannot grow the heap.  The main
        customer is the dispatcher's linger-deadline :class:`Timeout`,
        which becomes stale whenever a wave fills before its deadline
        fires.  Cancelling an already-processed event is a no-op.
        """
        if not self.cancelled and self._status is _TRIGGERED:
            self.sim._note_cancelled()
        self.cancelled = True
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Processes waiting on the event will have the exception thrown into
        them.  If nothing ever waits on a failed event the simulation raises
        the exception at processing time, so failures never pass silently.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._trigger(exception=exception)
        return self

    def _trigger(self, value: Any = None,
                 exception: Optional[BaseException] = None) -> None:
        if self._status is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        self._exception = exception
        self._status = _TRIGGERED
        self.sim._schedule(self, 0.0)

    # -- callbacks ----------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event is processed.

        Registering on an already-processed event runs the callback
        immediately, which lets late joiners observe past events without
        racing the scheduler.
        """
        if self._status is _PROCESSED:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        """Run callbacks; called by the simulation engine."""
        self._status = _PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)
        if self._exception is not None and not callbacks and not self.defused:
            # Nobody was listening to a failure: surface it instead of
            # letting it vanish.
            raise self._exception

    def _label(self) -> str:
        """The label ``repr`` shows when the event was given no name."""
        return self.__class__.__name__

    def __repr__(self) -> str:
        return f"<{self.name or self._label()} status={self._status.value}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim, delay: float, value: Any = None,
                 name: Optional[str] = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        # Event.__init__, inlined: timeouts are the kernel's most frequent
        # events.  Keep in step with Event's slots.
        self.sim = sim
        self.name = name
        self.callbacks = []
        self._value = value
        self._exception = None
        self._status = _TRIGGERED
        self.defused = False
        self.cancelled = False
        self.delay = delay
        sim._schedule(self, delay)

    def _label(self) -> str:
        return f"Timeout({self.delay})"


class _Bootstrap(Event):
    """The event that first resumes a new process; labelled ``init:<name>``."""

    __slots__ = ("process",)

    def __init__(self, process: "Process"):
        Event.__init__(self, process.sim)
        self.process = process

    def _label(self) -> str:
        return f"init:{self.process.name}"


class Process(Event):
    """A running generator; also an event that triggers on completion.

    The generator yields :class:`Event` instances.  Yielding anything else is
    a programming error and fails the process immediately.  The process
    succeeds with the generator's return value, or fails with the exception
    that escaped the generator.
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim, generator: Generator, name: Optional[str] = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                "Process requires a generator; got "
                f"{type(generator).__name__}. Did you forget to call the "
                "generator function?")
        Event.__init__(self, sim, name or getattr(
            generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Bootstrap: resume the generator as soon as the simulation runs.
        bootstrap = _Bootstrap(self)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current wait.

        Interrupting a finished process is a no-op, mirroring SimPy, so fault
        injectors do not need to check liveness first.
        """
        if not self.is_alive:
            return
        target = self._waiting_on
        if target is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._waiting_on = None
        interrupt_event = Event(self.sim, name=f"interrupt:{self.name}")
        interrupt_event.defused = True
        interrupt_event._value = None
        interrupt_event._exception = Interrupt(cause)
        interrupt_event._status = _TRIGGERED
        interrupt_event.add_callback(self._resume)
        self.sim._schedule(interrupt_event, delay=0.0)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self._waiting_on = None
        sim = self.sim
        sim._active_process = self
        try:
            exception = event._exception
            if exception is not None:
                event.defused = True
                target = self._generator.throw(exception)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            self._trigger(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - the process failed
            self.fail(exc)
            return
        finally:
            sim._active_process = None

        if not isinstance(target, Event):
            error = SimulationError(
                f"process {self.name!r} yielded {target!r}, which is not an "
                "Event")
            self.fail(error)
            return
        if target.sim is not sim:
            self.fail(SimulationError(
                f"process {self.name!r} yielded an event from a different "
                "simulation"))
            return
        self._waiting_on = target
        if target._status is _PROCESSED:
            self._resume(target)
        else:
            target.callbacks.append(self._resume)


class _Condition(Event):
    """Base for composite events built from several child events."""

    __slots__ = ("_events", "_pending")

    def __init__(self, sim, events: Iterable[Event], name: str):
        super().__init__(sim, name=name)
        self._events = list(events)
        self._pending = 0
        for child in self._events:
            if not isinstance(child, Event):
                raise SimulationError(
                    f"{name} requires Event instances, got {child!r}")
        if not self._events:
            self.succeed([])
            return
        # Count *before* registering: add_callback on an already-processed
        # child runs the callback immediately, and with an incremental count
        # the first processed child would drive _pending to zero and trigger
        # an AllOf prematurely while later children are still pending.
        self._pending = len(self._events)
        for child in self._events:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        raise NotImplementedError

    def _collect_values(self) -> list:
        return [child._value for child in self._events if child.ok]


class AllOf(_Condition):
    """Triggers when *all* child events have triggered.

    Succeeds with the list of child values (in the original order).  Fails as
    soon as any child fails.
    """

    __slots__ = ()

    def __init__(self, sim, events: Iterable[Event]):
        super().__init__(sim, events, name="AllOf")

    def _on_child(self, child: Event) -> None:
        if self._status is not _PENDING:
            return
        exc = child.exception
        if exc is not None:
            child.defused = True
            self.fail(exc)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([c._value for c in self._events])


class AnyOf(_Condition):
    """Triggers when the *first* child event triggers.

    Succeeds with a ``(event, value)`` tuple identifying the winner; fails if
    that first event failed.
    """

    __slots__ = ()

    def __init__(self, sim, events: Iterable[Event]):
        super().__init__(sim, events, name="AnyOf")

    def _on_child(self, child: Event) -> None:
        if self._status is not _PENDING:
            return
        exc = child.exception
        if exc is not None:
            child.defused = True
            self.fail(exc)
            return
        self.succeed((child, child._value))
