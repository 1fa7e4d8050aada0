"""The generic application front-end actor.

An application front-end sits at a site (close to the users it serves),
executes network procedures for subscribers, and for each procedure issues
the corresponding LDAP operations against the UDR -- always through the
closest Point of Access, as an FE client
(:attr:`repro.core.config.ClientType.APPLICATION_FE`).

A procedure succeeds only if *all* its operations succeed; a failed operation
aborts the rest of the procedure (the user perceives a failed registration or
call attempt).  The front-end records per-procedure latency and outcome in
the UDR's metrics registry so experiments can compare FE and PS behaviour
during partitions (experiment E03) and against the 10 ms target (E14).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.api.qos import QoSProfile
from repro.core.config import ClientType
from repro.frontends.procedures import (
    NetworkProcedure,
    ProcedureCatalogue,
    ProcedureOutcome,
)
from repro.subscriber.profile import SubscriberProfile


class ApplicationFrontEnd:
    """A stateless front-end instance serving users at one site.

    A thin adapter over the session API: construction attaches a named
    :class:`~repro.api.session.UDRClient` (FE client type) and keeps one
    long-lived session; every procedure's typed operations are issued
    through it.  An optional ``qos`` profile (priority, retry policy,
    deadline ticks) applies to all of the front-end's traffic.
    """

    client_type = ClientType.APPLICATION_FE
    default_mix = ProcedureCatalogue.classic_mix

    def __init__(self, name: str, udr, site,
                 procedure_mix: Optional[Dict[NetworkProcedure, float]] = None,
                 qos: Optional[QoSProfile] = None):
        self.name = name
        self.udr = udr
        self.site = site
        self.client = udr.attach(name, site, client_type=self.client_type,
                                 qos=qos)
        self.session = self.client.session()
        self.procedure_mix = procedure_mix or type(self).default_mix()
        self.procedures_attempted = 0
        self.procedures_succeeded = 0
        self.outcomes_by_procedure: Dict[str, Dict[str, int]] = {}

    # -- single procedure -------------------------------------------------------

    def run_procedure(self, procedure: NetworkProcedure,
                      subscriber: SubscriberProfile,
                      serving_node: Optional[str] = None):
        """Generator: execute one procedure; returns a ProcedureOutcome."""
        serving_node = serving_node or f"{self.name}-node"
        operations = procedure.operations(subscriber, serving_node)
        start = self.udr.sim.now
        self.procedures_attempted += 1
        outcome = ProcedureOutcome(procedure=procedure.name, succeeded=True,
                                   operations=len(operations))
        for index, operation in enumerate(operations):
            # Session.call routes by UDRConfig.dispatch_mode: direct
            # call-and-wait, or enqueue into the arrival-driven batch
            # dispatcher and wait (the client name is the source tag, so all
            # of this front-end's requests completing in one wave share a
            # single grouped response event).
            response = yield from self.session.call(operation)
            if not response.ok:
                outcome.succeeded = False
                outcome.failed_operation = index
                outcome.diagnostics.append(
                    f"{response.request.operation_name}: "
                    f"{response.result_code.name} "
                    f"({response.diagnostic_message})")
                break
        outcome.latency = self.udr.sim.now - start
        if outcome.succeeded:
            self.procedures_succeeded += 1
        stats = self.outcomes_by_procedure.setdefault(
            procedure.name, {"attempted": 0, "succeeded": 0})
        stats["attempted"] += 1
        stats["succeeded"] += int(outcome.succeeded)
        recorder = self.udr.metrics.latency(f"procedure.{procedure.name}")
        recorder.record(outcome.latency)
        procedure_outcomes = self.udr.metrics.outcomes("fe_procedures")
        if outcome.succeeded:
            procedure_outcomes.record_success()
        else:
            procedure_outcomes.record_failure(
                outcome.diagnostics[-1] if outcome.diagnostics else "failed")
        return outcome

    def run_random_procedure(self, subscriber: SubscriberProfile, rng):
        """Generator: execute one procedure drawn from this FE's traffic mix."""
        procedure = ProcedureCatalogue.pick(self.procedure_mix, rng)
        outcome = yield from self.run_procedure(procedure, subscriber)
        return outcome

    # -- background traffic driver --------------------------------------------------

    def traffic_driver(self, subscribers, rate_per_second: float,
                       duration: float, rng=None):
        """Generator: Poisson procedure arrivals for ``duration`` seconds.

        ``subscribers`` is the pool this front-end serves (typically the ones
        whose current region matches the FE's site region); each arrival
        picks a random subscriber and a random procedure from the mix.
        """
        if rate_per_second <= 0:
            raise ValueError("arrival rate must be positive")
        if not subscribers:
            raise ValueError("the front-end needs at least one subscriber")
        rng = rng or self.udr.sim.rng(f"fe.{self.name}")
        end_time = self.udr.sim.now + duration
        while self.udr.sim.now < end_time:
            yield from self.udr.sim.hold(rng.expovariate(rate_per_second))
            if self.udr.sim.now >= end_time:
                break
            subscriber = rng.choice(subscribers)
            yield from self.run_random_procedure(subscriber, rng)
        return self.procedures_attempted

    # -- reporting -----------------------------------------------------------------------

    def success_ratio(self) -> float:
        if self.procedures_attempted == 0:
            return 1.0
        return self.procedures_succeeded / self.procedures_attempted

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name!r} site={self.site} "
                f"procedures={self.procedures_attempted} "
                f"success={self.success_ratio():.3f}>")
