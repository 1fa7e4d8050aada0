"""Arrival-driven batch dispatcher: waves formed by actually waiting.

PR 2's ``execute_batch`` amortises the PoA/LDAP/locate hops across a wave,
but only when a caller hands the pipeline an explicit batch.  Real UDR
traffic arrives one request at a time from many front-ends; the
:class:`BatchDispatcher` is the queue those front-ends enqueue into
(:meth:`submit`), and it forms admission waves from the continuous arrival
stream:

* a wave dispatches as soon as ``UDRConfig.batch_max_size`` requests have
  gathered, **or**
* when the oldest enqueued request has lingered
  ``UDRConfig.batch_linger_ticks`` ticks (of
  :data:`~repro.core.pipeline.BATCH_LINGER_TICK` each) -- whichever comes
  first.

The linger budget is *really spent* as simulated waiting time in the queue
-- unlike the fixed surcharge an under-filled explicit batch pays -- so the
throughput/latency trade-off of lingering is an emergent property of the
arrival process (experiment ``e16_dispatcher_latency`` sweeps it).

Wave membership follows the same weighted priority dequeue as batched
admission (signalling > provisioning > bulk, FIFO within a class): when more
requests are queued than fit one wave, signalling arrivals overtake bulk
ones that arrived earlier, without starving them.  Each wave runs through
:meth:`OperationPipeline.execute_wave` (no linger surcharge, one metric
flush), and every request's :class:`DispatchTicket` event is triggered with
its :class:`~repro.ldap.operations.LdapResponse`.

Two load-path refinements ride on the queue:

* **adaptive lingering** (``UDRConfig.adaptive_linger``): instead of the
  fixed ``batch_linger_ticks`` budget, an :class:`AdaptiveLingerController`
  tracks an EWMA of observed inter-arrival times and picks each wave's
  budget between the policy's min/max -- saturated traffic dispatches
  immediately, trickle traffic stops paying the linger latency tax, and the
  regime in between waits just long enough to fill the wave (the e16 sweep
  showed the static optimum shifts with arrival rate);
* **shared-wave respond path**: tickets submitted with a ``source`` tag
  (front-ends and the provisioning system pass their name) resume their
  callers through *one* grouped response event per wave per source instead
  of one simulator event per ticket.  The wake is keyed: each waiter is
  registered under its ticket (:meth:`BatchDispatcher.wait_event`), and the
  shared event resumes only the callers whose ticket it answered, moving
  the others onto the source's next event without running them -- so a
  queue thousands deep costs one resume per answered caller, not one per
  caller per wave.

Two overload defences complete the control loop (PR 7):

* **deadline-aware waking**: the loop's sleep target is the earlier of the
  frozen linger deadline and the earliest queued QoS deadline, so an
  expiring ticket is answered ``TIME_LIMIT_EXCEEDED`` *at* its deadline
  (``_expire_overdue`` runs at every wake-up), not at the next wave
  formation; wave membership itself is slack-aware
  (:meth:`~repro.core.pipeline.BatchAdmissionStage.order` sorts by
  remaining deadline slack within each priority class).  Timeouts the loop
  abandons -- a wave filling before its linger deadline, the queue
  draining -- are cancelled
  (:meth:`~repro.sim.events.Event.cancel`), so sustained saturation
  cannot leak dead timeouts into the simulator's event heap;
* **shed mode** (``UDRConfig.shed_policy``): a queue-depth EWMA with
  trip/clear hysteresis (:class:`ShedController`).  While tripped, reads
  may be served from slave replicas even for master-only client types and
  bulk-class tickets are deferred from wave membership (never dropped).

The queue itself is an :class:`~repro.core.pipeline.AdmissionQueue`, the
same weighted-priority order ``execute_batch`` uses, kept across waves:
forming a wave, removing it, finding the oldest ticket and expiring
overdue ones all cost in proportion to the wave or to the expired
tickets, never to the queue's depth.

Observability (recorded straight into the deployment's metrics registry):
``dispatcher.enqueued`` / ``dispatcher.dispatched`` counters, wave counters
(``dispatcher.waves``, split into ``.waves_full`` / ``.waves_lingered``),
the ``dispatcher.queue_depth`` gauge (plus an all-time
``dispatcher.queue_depth_max``), a ``dispatcher.linger`` latency recorder
-- the per-request linger histogram, queue-expired tickets included --
plus, for the extensions, the ``dispatcher.adaptive_budget`` histogram of
chosen budgets, the ``dispatcher.grouped_responses`` /
``dispatcher.grouped_tickets`` counters, and the shed-mode family
(``dispatcher.shed.activations`` / ``.active`` / ``.bulk_deferred`` /
``.slave_reads``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.topology import Site
from repro.core.config import (
    AdaptiveLingerPolicy,
    ClientType,
    DispatchMode,
    Priority,
    ShedPolicy,
    UDRConfig,
)
from repro.core.pipeline import (
    BATCH_LINGER_TICK,
    AdmissionQueue,
    BatchItem,
    OperationPipeline,
)
from repro.ldap.operations import LdapRequest, LdapResponse, ResultCode
from repro.metrics.collector import MetricsRegistry
from repro.sim import Event
from repro.sim.events import _PROCESSED


class _Waiter(Event):
    """One caller's wait for one source-tagged ticket.

    What :meth:`BatchDispatcher.wait_event` hands the caller to yield.  It
    is never scheduled: it sits among the callbacks of its source's wave
    response, which calls it -- resuming the caller -- once the ticket is
    answered, and otherwise hands it on (see :meth:`_WaveResponse._process`).
    An interrupted caller has withdrawn its resume, so its waiter is dropped.
    """

    __slots__ = ("ticket",)

    def __init__(self, sim, ticket: "DispatchTicket"):
        Event.__init__(self, sim)
        self.ticket = ticket

    def __call__(self, response: Event) -> None:
        self._status = _PROCESSED
        self._value = response._value
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def _label(self) -> str:
        return f"waiter:{self.ticket.source}"


class _WaveResponse(Event):
    """The shared wake-up of one source's waiters (see
    :meth:`BatchDispatcher.response_event`); ``repr`` formats its
    ``wave-response:<source>`` label only when it is shown."""

    __slots__ = ("dispatcher", "source")

    def __init__(self, dispatcher: "BatchDispatcher", source):
        Event.__init__(self, dispatcher.sim)
        self.dispatcher = dispatcher
        self.source = source

    def _process(self) -> None:
        """The keyed wake: walk the callbacks in order, resume the waiters
        whose ticket is answered and append each other waiter to the
        source's fresh event without resuming it.  A caller that waits
        again as it is resumed lands on the fresh event at that point of
        the walk, so the fresh event's order is exactly that of a wake of
        every waiter in which the unanswered ones wait again -- at one
        append, not one generator resume, per waiter left waiting."""
        self._status = _PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        waiting = None
        for callback in callbacks:
            if callback.__class__ is _Waiter and \
                    callback.ticket.response is None:
                if callback.callbacks:  # else the caller was interrupted
                    if waiting is None:
                        waiting = self.dispatcher.response_event(
                            self.source).callbacks
                    waiting.append(callback)
                continue
            if callback.__class__ is not _Waiter or callback.callbacks:
                callback(self)
                waiting = None  # a resumed caller may trigger that event

    def _label(self) -> str:
        return f"wave-response:{self.source}"


class DispatchTicket:
    """One enqueued request: what :meth:`BatchDispatcher.submit` returns.

    For a plain ticket (no ``source``), ``event`` triggers with the
    request's :class:`~repro.ldap.operations.LdapResponse` when its wave
    completes; a waiting client generator simply ``yield``\\ s it.  Tickets
    submitted with a ``source`` tag share *one* grouped response event per
    wave per source instead (``event`` is ``None``): the caller yields
    :meth:`BatchDispatcher.wait_event` until :attr:`response` is set,
    which is how a session future waits.  ``enqueued_at`` / ``completed_at``
    bracket the client-perceived latency, queue wait included.
    """

    __slots__ = ("item", "rank", "deadline", "enqueued_at", "event",
                 "source", "response", "completed_at", "expired_in_queue")

    def __init__(self, item: BatchItem, enqueued_at: float, event,
                 source=None):
        self.item = item
        #: The item's admission class and QoS deadline, as the
        #: :class:`~repro.core.pipeline.AdmissionQueue` reads them.
        self.rank = item.rank
        self.deadline = item.deadline
        self.enqueued_at = enqueued_at
        self.event = event
        self.source = source
        self.response: Optional[LdapResponse] = None
        self.completed_at: Optional[float] = None
        #: True when the dispatcher answered the ticket from
        #: ``_expire_overdue`` (never dispatched).  The dispatcher records
        #: the per-client failure itself in that case, so the session layer
        #: must not count it a second time at settle.
        self.expired_in_queue = False

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    @property
    def latency(self) -> Optional[float]:
        """Enqueue-to-response latency, once the ticket completed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.enqueued_at

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return (f"<DispatchTicket {self.item.request.operation_name} "
                f"{state} enqueued_at={self.enqueued_at:.6f}>")


class AdaptiveLingerController:
    """Pick each wave's linger budget from the observed arrival rate.

    Tracks an exponentially weighted moving average of inter-arrival times
    (updated by :meth:`observe_arrival` on every submit) and turns it into
    a budget via :meth:`budget`: the expected time for the current wave to
    fill, clamped to the policy's ``[min_ticks, max_ticks]`` window -- with
    a trickle cut-off that stops lingering altogether when even the full
    ``max_ticks`` window could not gather ``fill_threshold`` of a wave.
    """

    __slots__ = ("policy", "batch_max_size", "ewma", "_last_arrival")

    def __init__(self, policy: AdaptiveLingerPolicy, batch_max_size: int):
        self.policy = policy
        self.batch_max_size = batch_max_size
        #: Smoothed inter-arrival time in virtual seconds (``None`` until
        #: two arrivals have been observed).
        self.ewma: Optional[float] = None
        self._last_arrival: Optional[float] = None

    def observe_arrival(self, now: float) -> None:
        if self._last_arrival is not None:
            sample = now - self._last_arrival
            if self.ewma is None:
                self.ewma = sample
            else:
                alpha = self.policy.alpha
                self.ewma = alpha * sample + (1.0 - alpha) * self.ewma
        self._last_arrival = now

    def budget(self, queue_depth: int) -> float:
        """The linger budget (virtual seconds) for the next wave."""
        policy = self.policy
        min_budget = policy.min_ticks * BATCH_LINGER_TICK
        max_budget = policy.max_ticks * BATCH_LINGER_TICK
        if self.ewma is None:
            # No rate estimate yet: dispatch fast rather than guess.
            return min_budget
        if self.ewma <= 0.0:
            # Simultaneous arrivals (a standing queue): waves fill on their
            # own, lingering would only add latency.
            return min_budget
        gatherable = max_budget / self.ewma
        if gatherable < policy.fill_threshold * self.batch_max_size:
            # Trickle: even the maximum budget cannot fill a meaningful
            # fraction of a wave -- don't pay the latency tax.
            return min_budget
        missing = max(0, self.batch_max_size - 1 - queue_depth)
        expected_fill = missing * self.ewma
        return min(max(expected_fill, min_budget), max_budget)


class ShedController:
    """Queue-depth EWMA overload detector with trip/clear hysteresis.

    Fed one observation per submit and per dispatched wave
    (:meth:`observe`), it smooths the dispatcher's queue depth and flips
    the deployment into **shed mode** when the smoothed depth reaches
    ``ShedPolicy.trip_depth`` -- and back out only once it has fallen to
    ``clear_depth``, so a load level hovering at the boundary cannot make
    the mode chatter.  While active it raises
    ``OperationPipeline.shed_active`` (slave reads for master-only client
    types) and the dispatcher defers bulk-class tickets from wave
    membership; ``dispatcher.shed.activations`` counts trips and the
    ``dispatcher.shed.active`` gauge shows the current state.
    """

    __slots__ = ("policy", "pipeline", "metrics", "ewma", "active")

    def __init__(self, policy: ShedPolicy, pipeline: OperationPipeline,
                 metrics: MetricsRegistry):
        self.policy = policy
        self.pipeline = pipeline
        self.metrics = metrics
        self.ewma = 0.0
        self.active = False

    def observe(self, queue_depth: int) -> None:
        alpha = self.policy.alpha
        self.ewma = alpha * queue_depth + (1.0 - alpha) * self.ewma
        if not self.active and self.ewma >= self.policy.trip_depth:
            self.active = True
            self.pipeline.shed_active = True
            self.metrics.increment("dispatcher.shed.activations")
            self.metrics.set_gauge("dispatcher.shed.active", 1)
        elif self.active and self.ewma <= self.policy.clear_depth:
            self.active = False
            self.pipeline.shed_active = False
            self.metrics.set_gauge("dispatcher.shed.active", 0)


class BatchDispatcher:
    """The arrival-driven admission queue of one UDR deployment."""

    def __init__(self, sim, config: UDRConfig, pipeline: OperationPipeline,
                 metrics: MetricsRegistry):
        self.sim = sim
        self.config = config
        self.pipeline = pipeline
        self.metrics = metrics
        #: The queued tickets, persistent across waves.
        self.queue = AdmissionQueue()
        self.waves_dispatched = 0
        self.requests_dispatched = 0
        self.adaptive = (AdaptiveLingerController(config.adaptive_linger,
                                                  config.batch_max_size)
                         if config.adaptive_linger is not None else None)
        self.shed = (ShedController(config.shed_policy, pipeline, metrics)
                     if config.shed_policy is not None else None)
        self._process = None
        self._wake = None
        #: Bumped by stop(); a running loop exits when its generation is
        #: stale, so stop()+start() can never leave two loops dispatching.
        self._generation = 0
        #: The armed wake-up timeout and the instant it fires at; re-armed
        #: only when the target instant moves, and *cancelled* whenever the
        #: loop stops waiting on it (a wave fills early, the queue drains),
        #: so saturation cannot leak dead timeouts into the event heap.
        #: The wake target is the earlier of the frozen linger deadline and
        #: the earliest queued QoS deadline -- the early wake is what lets
        #: an expiring ticket be answered *at* its deadline instead of at
        #: the next wave formation.
        self._deadline_timeout = None
        self._timeout_at = 0.0
        #: The ticket whose linger deadline is frozen (``_deadline_at``):
        #: fixed when the ticket becomes oldest, so an adaptive budget
        #: drifting between arrivals cannot re-open the window.
        self._deadline_ticket = None
        self._deadline_at = 0.0
        #: Per-source shared response events (the shared-wave respond path).
        self._source_events: Dict[object, object] = {}

    # -- lifecycle ----------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._process is not None and self._process.is_alive

    def start(self) -> None:
        """Start the dispatch loop process (idempotent)."""
        if not self.started:
            self._process = self.sim.process(self._run(self._generation),
                                             name="batch-dispatcher")

    def stop(self) -> None:
        """Stop the dispatch loop.  A wave already executing finishes (its
        clients get their responses); tickets still queued stay pending --
        stopping mid-traffic is a teardown, not a drain."""
        self._generation += 1
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
        self._process = None
        self._wake = None

    # -- the client side ----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    def linger_budget(self) -> float:
        """The linger budget in virtual seconds (adaptive when configured)."""
        if self.adaptive is not None:
            budget = self.adaptive.budget(len(self.queue))
            self.metrics.histogram("dispatcher.adaptive_budget").record(budget)
            return budget
        return self.config.batch_linger_ticks * BATCH_LINGER_TICK

    def submit(self, request: LdapRequest, client_type: ClientType,
               client_site: Site, priority: Optional[Priority] = None,
               source=None, deadline: Optional[float] = None,
               retry_policy=None) -> DispatchTicket:
        """Enqueue one request; returns its :class:`DispatchTicket`.

        Non-blocking and callable from outside any process; the caller
        waits by yielding ``ticket.event`` -- or, when a ``source`` tag is
        given (any hashable identifying the submitting front-end process),
        by yielding :meth:`wait_event` until ``ticket.response`` is set:
        all of a source's tickets completing in one wave then resume their
        callers through a single grouped event.  Starts the dispatch
        loop lazily, so drivers need not care whether ``udr.start()`` ran
        with ``dispatch_mode=DISPATCHER`` already set.

        ``deadline`` (absolute virtual time) and ``retry_policy`` carry
        per-session QoS from the :mod:`repro.api` layer: a ticket still
        queued when its deadline passes is answered
        ``TIME_LIMIT_EXCEEDED`` at the deadline itself (the dispatch loop
        arms an early wake-up for it) *without* occupying a wave slot or
        touching the pipeline.
        """
        self.start()
        if self.adaptive is not None:
            self.adaptive.observe_arrival(self.sim.now)
        item = BatchItem(request, client_type, client_site, priority=priority,
                         deadline=deadline, retry_policy=retry_policy)
        event = None if source is not None else \
            self.sim.event("dispatch-ticket")
        ticket = DispatchTicket(item, self.sim.now, event, source=source)
        self.queue.push(ticket)
        self.metrics.increment("dispatcher.enqueued")
        if getattr(request, "paged", False):
            # A paged search occupies one wave slot per page, never the
            # whole result set; count the pages flowing through the queue.
            self.metrics.increment("dispatcher.search_pages")
        self.metrics.set_gauge("dispatcher.queue_depth", len(self.queue))
        self.metrics.set_gauge_max("dispatcher.queue_depth_max",
                                   len(self.queue))
        if self.shed is not None:
            self.shed.observe(len(self.queue))
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
        return ticket

    def response_event(self, source):
        """The shared event the next wave completing ``source`` tickets
        triggers (one per wave per source, whatever the number of
        waiters)."""
        event = self._source_events.get(source)
        if event is None or event.triggered:
            event = _WaveResponse(self, source)
            self._source_events[source] = event
        return event

    def wait_event(self, ticket: DispatchTicket) -> _Waiter:
        """The event to yield while a source-tagged ``ticket`` is pending.

        Callers loop ``while ticket.response is None: yield
        dispatcher.wait_event(ticket)``.  The waiter joins the callbacks
        of the source's current :meth:`response_event`, keyed by its
        ticket: a wave that answers other tickets of the source passes it
        on to the next event without resuming the caller, and the wave
        that answers its own resumes it (see :meth:`_WaveResponse._process`).
        """
        waiter = _Waiter(self.sim, ticket)
        self.response_event(ticket.source).callbacks.append(waiter)
        return waiter

    def _answer(self, ticket: DispatchTicket, response: LdapResponse) -> None:
        """Complete ``ticket``; a tagged ticket's caller resumes when its
        source's grouped response event fires."""
        ticket.completed_at = self.sim.now
        ticket.response = response
        if ticket.source is None:
            ticket.event.succeed(response)

    # -- the dispatch loop --------------------------------------------------------

    def _run(self, generation: int):
        """Generator: the dispatch loop.

        Sleeps on an arrival event while idle; with work queued, dispatches
        immediately when the wave is full or the oldest request's linger
        deadline has passed, otherwise sleeps until the next decision
        instant -- the linger deadline, the earliest queued QoS deadline
        (the *early wake*: an expiring ticket is answered at its deadline
        even if no wave forms then), or the next arrival, whichever comes
        first.  A timeout the loop stops waiting on is cancelled, so the
        event heap never accumulates dead linger deadlines under
        saturation.  The queue keeps its arrival order, so its oldest
        waiting request is found in O(1) even though priority selection
        removes from the middle.  The loop exits when stop() bumped the
        generation past the one it was started with.
        """
        queue = self.queue
        while generation == self._generation:
            if not queue:
                self._cancel_wake_timeout()
                self._deadline_ticket = None
                self._wake = self.sim.event("dispatcher-arrival")
                yield self._wake
                continue  # re-check the generation before dispatching
            while queue and generation == self._generation:
                # Deadline propagation first: expired tickets are answered
                # at the wake instant (their deadline), never dispatched.
                self._expire_overdue()
                if not queue:
                    break
                oldest = queue.oldest()
                if self._deadline_ticket is not oldest:
                    # Freeze this wave's budget when its oldest ticket is
                    # first seen (with adaptive lingering the budget moves
                    # with the arrival rate between waves, not within one).
                    self._deadline_ticket = oldest
                    self._deadline_at = oldest.enqueued_at + \
                        self.linger_budget()
                if len(queue) >= self.config.batch_max_size or \
                        self.sim.now >= self._deadline_at:
                    self._cancel_wake_timeout()
                    yield from self._dispatch_wave()
                    continue
                wake_at = self._deadline_at
                earliest = queue.earliest_deadline()
                if earliest is not None and earliest < wake_at:
                    wake_at = earliest
                if self._deadline_timeout is None or \
                        self._timeout_at != wake_at:
                    self._cancel_wake_timeout()
                    self._deadline_timeout = self.sim.timeout(
                        max(0.0, wake_at - self.sim.now))
                    self._timeout_at = wake_at
                self._wake = self.sim.event("dispatcher-arrival")
                yield self.sim.any_of([self._deadline_timeout, self._wake])

    def _cancel_wake_timeout(self) -> None:
        """Withdraw the armed wake-up timeout (if any) from the event heap."""
        if self._deadline_timeout is not None:
            self._deadline_timeout.cancel()
            self._deadline_timeout = None

    def _expire_overdue(self) -> None:
        """Answer queued tickets whose deadline passed, without dispatching.

        Runs at every dispatch-loop wake-up (deadline propagation, the
        session-QoS contract) -- and the loop arms an early-wake timeout at
        the earliest queued QoS deadline, so expiry is answered *at* the
        deadline, not at the next wave formation.  An expired ticket is
        completed with ``TIME_LIMIT_EXCEEDED`` on the spot -- zero wave
        slots, zero pipeline hops -- leaving the wave to the still-live
        work.  The time the ticket spent queued is recorded into the
        ``dispatcher.linger`` histogram (expiry is exactly when linger
        stats matter most) and source-tagged tickets are counted under
        their ``api.client.<source>.failed`` scope here, since they never
        reach a wave; the session layer skips its own failure count for
        these (``DispatchTicket.expired_in_queue``), so the failure is
        counted once either way.  Sources waiting on a grouped response
        event are woken so they can observe the expiry.
        """
        now = self.sim.now
        overdue = self.queue.expire(now)
        if not overdue:
            return
        self.metrics.set_gauge("dispatcher.queue_depth", len(self.queue))
        self.metrics.increment("dispatcher.deadline_expired", len(overdue))
        linger = self.metrics.latency("dispatcher.linger")
        sources: Dict[object, None] = {}
        for ticket in overdue:
            response = LdapResponse(
                result_code=ResultCode.TIME_LIMIT_EXCEEDED,
                request=ticket.item.request,
                diagnostic_message="deadline expired in dispatch queue",
                latency=now - ticket.enqueued_at)
            ticket.expired_in_queue = True
            linger.record(now - ticket.enqueued_at)
            self.metrics.outcomes(ticket.item.client_type.value) \
                .record_failure("deadline expired in dispatch queue")
            self._answer(ticket, response)
            if ticket.source is not None:
                self.metrics.increment(
                    f"api.client.{ticket.source}.failed")
                sources[ticket.source] = None
        for source in sources:
            event = self._source_events.pop(source, None)
            if event is not None and not event.triggered:
                event.succeed(0)

    def _form_wave(self) -> List[DispatchTicket]:
        """Pop the next wave's tickets off the queue by weighted priority.

        In shed mode, bulk-class tickets are deferred from membership while
        any higher-class work is queued -- deferred, never dropped: a queue
        holding only bulk work still dispatches it, so shedding cannot
        starve bulk into a livelock.
        """
        queue = self.queue
        defer = None
        if self.shed is not None and self.shed.active:
            bulk = queue.count(Priority.BULK)
            if 0 < bulk < len(queue):
                self.metrics.increment("dispatcher.shed.bulk_deferred", bulk)
                defer = Priority.BULK
        return queue.pop_wave(self.config.batch_max_size, defer)

    def _dispatch_wave(self):
        """Generator: form one wave (:meth:`_form_wave`) and execute it.

        The caller (:meth:`_run`) has already expired overdue tickets.
        """
        if not self.queue:
            return
        wave = self._form_wave()
        self.metrics.set_gauge("dispatcher.queue_depth", len(self.queue))
        full = len(wave) >= self.config.batch_max_size
        self.metrics.increment("dispatcher.waves")
        self.metrics.increment("dispatcher.waves_full" if full
                               else "dispatcher.waves_lingered")
        self.metrics.increment("dispatcher.dispatched", len(wave))
        linger = self.metrics.latency("dispatcher.linger")
        for ticket in wave:
            linger.record(self.sim.now - ticket.enqueued_at)
        responses = yield from self.pipeline.execute_wave(
            [ticket.item for ticket in wave])
        self.waves_dispatched += 1
        self.requests_dispatched += len(wave)
        if self.shed is not None:
            self.shed.observe(len(self.queue))
        grouped: Dict[object, int] = {}
        for ticket, response in zip(wave, responses):
            self._answer(ticket, response)
            if ticket.source is not None:
                grouped[ticket.source] = grouped.get(ticket.source, 0) + 1
        # Shared-wave respond path: all of a source's tickets in this wave
        # resume their callers through one grouped event (one simulator
        # event per source per wave instead of one per ticket).
        for source, count in grouped.items():
            event = self._source_events.pop(source, None)
            if event is not None and not event.triggered:
                event.succeed(count)
            self.metrics.increment("dispatcher.grouped_responses")
            self.metrics.increment("dispatcher.grouped_tickets", count)

    def __repr__(self) -> str:
        return (f"<BatchDispatcher queue={len(self.queue)} "
                f"waves={self.waves_dispatched} "
                f"mode={self.config.dispatch_mode.value} "
                f"linger_ticks={self.config.batch_linger_ticks}>")


__all__ = ["AdaptiveLingerController", "BatchDispatcher", "DispatchTicket",
           "DispatchMode", "ShedController"]
