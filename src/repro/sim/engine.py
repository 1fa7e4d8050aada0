"""The simulation engine: virtual clock plus event queue.

The engine processes events in ``(time, sequence)`` order -- events due at
the same instant run in the order they were scheduled -- so results are
fully deterministic for a given seed and program.  Processes are
created with :meth:`Simulation.process` and advance by yielding events.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Generator, Iterable, Optional

from repro.sim.events import AllOf, AnyOf, Event, Process, Timeout
from repro.sim.rng import RandomStreams


class Simulation:
    """A discrete-event simulation with a virtual clock.

    Parameters
    ----------
    seed:
        Root seed for all random streams obtained through :meth:`rng`.
        Two simulations built with the same seed and the same program
        produce identical traces.
    """

    def __init__(self, seed: int = 0):
        #: Current virtual time in seconds.  Read it freely; only the
        #: engine advances it.
        self.now = 0.0
        self._queue: list = []
        self._sequence = 0
        self._active_process: Optional[Process] = None
        #: Scheduled-but-cancelled entries still sitting in the heap; when
        #: they dominate, :meth:`_prune_cancelled` compacts the heap in one
        #: pass instead of waiting for each to reach the top.
        self._cancelled_scheduled = 0
        self.streams = RandomStreams(seed)
        self.seed = seed

    # -- clock ---------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')`` if none."""
        self._prune_cancelled()
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    # -- randomness ----------------------------------------------------------

    def rng(self, stream: str):
        """Return the named deterministic random stream.

        Separate components should use separate stream names so adding a new
        consumer of randomness does not perturb unrelated results.
        """
        return self.streams.get(stream)

    # -- event creation -------------------------------------------------------

    def event(self, name: Optional[str] = None) -> Event:
        """Create a plain event that some component will trigger later."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` virtual seconds."""
        return Timeout(self, delay, value=value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from a generator and return it."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event that triggers when all ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event that triggers when the first of ``events`` does."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        """Insert a triggered event into the queue ``delay`` from now."""
        self._sequence += 1
        heappush(self._queue, (self.now + delay, self._sequence, event))

    # -- execution -----------------------------------------------------------

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` for scheduled, unprocessed events."""
        self._cancelled_scheduled += 1

    def _prune_cancelled(self) -> None:
        """Drop cancelled entries from the heap (lazy deletion + compaction).

        Cancellation (:meth:`~repro.sim.events.Event.cancel`) only marks the
        event; the queue entry is discarded here -- from the top the moment
        it would otherwise be the next to run, or in one compaction pass
        when cancelled entries have come to outnumber live ones (so a
        workload that cancels at a sustained rate keeps a bounded heap
        instead of carrying every dead entry to its original fire time).
        A cancelled event never advances the clock and never runs
        callbacks.

        The per-event loops call this only when it can have work: when
        ``_cancelled_scheduled`` is non-zero or the heap top is cancelled.
        Both tests are needed, because an event cancelled while still
        pending is scheduled already cancelled and never counted.
        Compaction rewrites the heap list in place, so those loops may hold
        on to ``self._queue``.
        """
        queue = self._queue
        if self._cancelled_scheduled > 32 and \
                self._cancelled_scheduled * 2 > len(queue):
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapify(queue)
            self._cancelled_scheduled = 0
            return
        while queue and queue[0][2].cancelled:
            heappop(queue)
            if self._cancelled_scheduled > 0:
                self._cancelled_scheduled -= 1

    def step(self) -> None:
        """Process the single next (non-cancelled) event.

        This is the one per-event entry point: :meth:`run` and
        :meth:`run_until_triggered` dispatch every event through it, and
        the benchmark's tracer counts its calls as ``sim.events``.

        Raises
        ------
        IndexError
            If the queue is empty.
        """
        queue = self._queue
        if self._cancelled_scheduled or queue and queue[0][2].cancelled:
            self._prune_cancelled()
        when, _seq, event = heappop(queue)
        self.now = when
        event._process()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue empties or the clock would pass ``until``.

        Returns the simulation time when the run stopped.  When ``until`` is
        given the clock is advanced exactly to it even if no event falls on
        that instant, which makes back-to-back ``run(until=...)`` calls
        compose predictably.
        """
        if until is not None and until < self.now:
            raise ValueError(f"cannot run to {until}: simulation time is "
                             f"already {self.now}")
        queue = self._queue
        while queue:
            if self._cancelled_scheduled or queue[0][2].cancelled:
                self._prune_cancelled()
                if not queue:
                    break
            if until is not None and queue[0][0] > until:
                break
            self.step()
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def run_for(self, duration: float) -> float:
        """Run for ``duration`` more virtual seconds (convenience wrapper)."""
        return self.run(until=self.now + duration)

    def run_until_triggered(self, event: Event,
                            limit: Optional[float] = None) -> float:
        """Run only until ``event`` triggers (or ``limit`` is reached).

        Unlike :meth:`run`, this stops as soon as the awaited event has
        fired, leaving unrelated background events (replication ticks,
        periodic checkpoints...) in the queue.  Drivers that issue many
        individual operations against a long-lived deployment use this to
        avoid simulating the idle time after each operation.
        """
        deadline = float("inf") if limit is None else limit
        if deadline < self.now:
            raise ValueError(f"cannot run to {limit}: simulation time is "
                             f"already {self.now}")
        queue = self._queue
        while not event.triggered and queue:
            if self._cancelled_scheduled or queue[0][2].cancelled:
                self._prune_cancelled()
                if not queue:
                    break
            if queue[0][0] > deadline:
                break
            self.step()
        return self.now

    def __repr__(self) -> str:
        return (f"<Simulation now={self.now:.6f}s "
                f"pending={len(self._queue)} seed={self.seed}>")
