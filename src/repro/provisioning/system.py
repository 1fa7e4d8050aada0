"""The Provisioning System (PS) actor.

"An instance of the PS is always co-located with a UDR PoA" (section 3.3.3),
it accesses the UDR as the :attr:`~repro.core.config.ClientType.PROVISIONING`
client (no slave reads), and treats each provisioning operation as one
transaction: if any of its LDAP requests fails the operation has failed and,
per section 4.1, somebody has to fix it by hand -- the manual-intervention
counter is the cost the paper argues service providers refuse to pay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.api.qos import QoSProfile
from repro.core.config import ClientType, Priority
from repro.provisioning.backlog import BacklogModel
from repro.provisioning.operations import ProvisioningOperation


@dataclass
class ProvisioningOutcome:
    """Result of one provisioning operation."""

    operation: str
    subscriber_key: str
    succeeded: bool
    attempts: int = 1
    latency: float = 0.0
    failed_request_index: Optional[int] = None
    partially_applied: bool = False
    diagnostics: List[str] = field(default_factory=list)

    @property
    def needs_manual_intervention(self) -> bool:
        """A failed (especially partially applied) operation needs a human."""
        return not self.succeeded


class ProvisioningSystem:
    """A PS instance co-located with one Point of Access.

    A thin adapter over the session API: construction attaches a named
    :class:`~repro.api.session.UDRClient` (provisioning client type, so no
    slave reads) and keeps one long-lived session; provisioning operations'
    typed :mod:`repro.api` operations are issued through it.  An optional
    ``qos`` profile applies to all of this PS's traffic -- bulk runs
    typically pass ``QoSProfile(priority=Priority.BULK, deadline_ticks=...)``
    so floods yield to signalling (experiment E18).
    """

    client_type = ClientType.PROVISIONING

    def __init__(self, name: str, udr, site, max_retries: int = 0,
                 retry_delay: float = 0.5,
                 backlog: Optional[BacklogModel] = None,
                 qos: Optional[QoSProfile] = None):
        if max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        self.name = name
        self.udr = udr
        self.site = site
        self.client = udr.attach(name, site, client_type=self.client_type,
                                 qos=qos)
        self.session = self.client.session()
        self.max_retries = max_retries
        self.retry_delay = retry_delay
        self.backlog = backlog or BacklogModel()
        self.operations_attempted = 0
        self.operations_succeeded = 0
        self.manual_interventions = 0
        self.partial_applications = 0

    # -- single operation -----------------------------------------------------------

    def provision(self, operation: ProvisioningOperation):
        """Generator: run one provisioning operation (with optional retries)."""
        start = self.udr.sim.now
        self.operations_attempted += 1
        attempts = 0
        outcome = ProvisioningOutcome(
            operation=operation.name,
            subscriber_key=operation.subscriber.key,
            succeeded=False)
        while attempts <= self.max_retries:
            attempts += 1
            outcome.attempts = attempts
            succeeded, failed_index, applied_any, diagnostics = \
                yield from self._run_requests(operation)
            outcome.diagnostics.extend(diagnostics)
            if succeeded:
                outcome.succeeded = True
                break
            outcome.failed_request_index = failed_index
            outcome.partially_applied = applied_any and failed_index is not None
            if attempts <= self.max_retries:
                yield from self.udr.sim.hold(self.retry_delay)
        outcome.latency = self.udr.sim.now - start
        self._account(outcome)
        return outcome

    def _run_requests(self, operation: ProvisioningOperation):
        operations = operation.operations()
        applied_any = False
        diagnostics: List[str] = []
        for index, typed_operation in enumerate(operations):
            # Session.call is dispatch-mode aware: under DISPATCHER it
            # enqueues into the arrival-driven batch dispatcher instead of
            # call-and-wait; the client name is the source tag, joining the
            # PS's wave-mates on one grouped response event (the
            # shared-wave respond path).
            response = yield from self.session.call(typed_operation)
            if not response.ok:
                diagnostics.append(
                    f"{response.request.operation_name}: "
                    f"{response.result_code.name} "
                    f"({response.diagnostic_message})")
                return False, index, applied_any, diagnostics
            if typed_operation.is_write:
                applied_any = True
        return True, None, applied_any, diagnostics

    # -- pipelined operations ---------------------------------------------------------

    def provision_pipelined(self, operations: List[ProvisioningOperation],
                            priority: Priority = Priority.BULK):
        """Generator: run a list of operations as pipelined batches.

        Consecutive single-request operations are carried through the
        session's batched admission together
        (:meth:`repro.api.session.Session.execute_batch`), amortising the
        PoA, LDAP and locate hops; a multi-request operation (a
        transactional sequence such as a SIM swap) flushes the accumulated
        batch first and then runs through the sequential :meth:`provision`
        path, so operations always *execute* in input order.  The PS-level
        retry budget (``max_retries`` / ``retry_delay``) applies to batched
        operations too: failed ones are re-batched after the delay, exactly
        as :meth:`provision` re-attempts.  Returns one
        :class:`ProvisioningOutcome` per operation, in input order.
        """
        outcomes: List[Optional[ProvisioningOutcome]] = [None] * len(operations)
        segment: List[tuple] = []
        for index, operation in enumerate(operations):
            typed = operation.operations()
            if len(typed) == 1:
                segment.append((index, typed[0]))
                continue
            yield from self._provision_segment(segment, operations, outcomes,
                                               priority)
            segment = []
            outcomes[index] = yield from self.provision(operation)
        yield from self._provision_segment(segment, operations, outcomes,
                                           priority)
        return outcomes

    def _provision_segment(self, segment, operations, outcomes,
                           priority: Priority):
        """Generator: run one run of single-request operations as batches,
        re-batching failures until the PS retry budget is spent."""
        if not segment:
            return
        start = self.udr.sim.now
        results = {}
        attempts_of = {index: 0 for index, _operation in segment}
        latency_of = {}
        diagnostics_of = {index: [] for index, _operation in segment}
        pending = list(segment)
        attempts = 0
        batch_qos = QoSProfile(priority=priority)
        while True:
            attempts += 1
            responses = yield from self.session.execute_batch(
                [typed for _index, typed in pending], qos=batch_qos)
            for (index, typed), response in zip(pending, responses):
                results[index] = (typed, response)
                attempts_of[index] = attempts
                # An operation's latency runs until the batch that carried
                # its (final) attempt completed -- later *retry rounds* are
                # excluded, the waves inside one batch are not separable.
                latency_of[index] = self.udr.sim.now - start
                if not response.ok:
                    diagnostics_of[index].append(
                        f"{response.request.operation_name}: "
                        f"{response.result_code.name} "
                        f"({response.diagnostic_message})")
            failed = [(index, typed) for index, typed in pending
                      if not results[index][1].ok]
            if not failed or attempts > self.max_retries:
                break
            pending = failed
            yield from self.udr.sim.hold(self.retry_delay)
        for index, _operation in segment:
            _, response = results[index]
            operation = operations[index]
            self.operations_attempted += 1
            outcome = ProvisioningOutcome(
                operation=operation.name,
                subscriber_key=operation.subscriber.key,
                succeeded=response.ok,
                attempts=attempts_of[index],
                latency=latency_of[index],
                diagnostics=diagnostics_of[index])
            if not response.ok:
                outcome.failed_request_index = 0
            self._account(outcome)
            outcomes[index] = outcome

    def _account(self, outcome: ProvisioningOutcome) -> None:
        if outcome.succeeded:
            self.operations_succeeded += 1
        else:
            self.manual_interventions += 1
            if outcome.partially_applied:
                self.partial_applications += 1
        recorder = self.udr.metrics.latency(f"provisioning.{outcome.operation}")
        recorder.record(outcome.latency)
        outcomes = self.udr.metrics.outcomes("ps_operations")
        if outcome.succeeded:
            outcomes.record_success()
        else:
            outcomes.record_failure(outcome.diagnostics[-1]
                                    if outcome.diagnostics else "failed")

    # -- steady flow driver --------------------------------------------------------------

    def steady_flow(self, operations: List[ProvisioningOperation],
                    rate_per_second: float, rng=None,
                    poll_interval: float = 0.1):
        """Generator: a Poisson arrival stream feeding one serial PS worker.

        Operations arrive at ``rate_per_second`` independently of how fast
        the PS can execute them; the worker drains the queue one operation at
        a time.  Arrivals enter the backlog immediately and leave when their
        operation completes, so when UDR latency inflates the backlog depth
        grows exactly as section 3.3 of the paper describes (experiment E13).
        """
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        rng = rng or self.udr.sim.rng(f"ps.{self.name}")
        sim = self.udr.sim
        pending: List[ProvisioningOperation] = []

        def arrivals(sim):
            for operation in operations:
                yield from sim.hold(rng.expovariate(rate_per_second))
                self.backlog.arrive(sim.now)
                pending.append(operation)

        arrival_process = sim.process(arrivals(sim),
                                      name=f"ps-arrivals:{self.name}")
        completed = []
        while len(completed) < len(operations):
            if pending:
                operation = pending.pop(0)
                outcome = yield from self.provision(operation)
                self.backlog.complete(sim.now, dropped=False)
                completed.append(outcome)
            elif arrival_process.triggered and not pending:
                break
            else:
                yield from sim.hold(poll_interval)
        return completed

    # -- reporting -------------------------------------------------------------------------

    def success_ratio(self) -> float:
        if self.operations_attempted == 0:
            return 1.0
        return self.operations_succeeded / self.operations_attempted

    def __repr__(self) -> str:
        return (f"<ProvisioningSystem {self.name!r} site={self.site} "
                f"attempted={self.operations_attempted} "
                f"manual={self.manual_interventions}>")
