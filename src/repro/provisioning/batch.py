"""Batch provisioning (paper sections 3.3 and 4.1).

"Some service providers perform batch provisioning, which consists of issuing
a huge batch of provisioning operations during a relatively short period of
time" -- and "when using batched provisioning, a network glitch as short as 30
seconds may cause a batch that's been running for hours to fail.  At the very
best, if the batch is able to finish the provider needs to send someone to
check what parts of the batch failed and apply those parts manually."

:class:`BatchRun` submits a list of provisioning operations back-to-back (at
a configurable pacing) through a :class:`~repro.provisioning.system.ProvisioningSystem`
and produces a :class:`BatchReport` with exactly the quantities that argument
is about: how many parts failed, whether the batch as a whole is considered
failed, and how much manual work is left over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.provisioning.operations import ProvisioningOperation
from repro.provisioning.system import ProvisioningOutcome, ProvisioningSystem


@dataclass
class BatchReport:
    """Outcome of one batch provisioning run."""

    total_operations: int
    succeeded: int
    failed: int
    duration: float
    failed_operations: List[ProvisioningOutcome] = field(default_factory=list)
    abort_threshold: Optional[float] = None
    aborted: bool = False

    @property
    def success_ratio(self) -> float:
        if self.total_operations == 0:
            return 1.0
        return self.succeeded / self.total_operations

    @property
    def manual_interventions(self) -> int:
        """Operations somebody has to re-apply (or clean up) by hand."""
        return self.failed

    @property
    def batch_failed(self) -> bool:
        """The operator's verdict: aborted, or too many failed parts."""
        return self.aborted or self.failed > 0

    def __repr__(self) -> str:
        return (f"<BatchReport {self.succeeded}/{self.total_operations} ok "
                f"failed={self.failed} aborted={self.aborted}>")


class BatchRun:
    """Submits a batch of provisioning operations through a PS instance.

    With ``pipelined=True`` the run hands slices of
    ``udr.config.batch_max_size`` operations to
    :meth:`~repro.provisioning.system.ProvisioningSystem.provision_pipelined`
    (bulk priority), amortising the admission/LDAP/locate hops across each
    slice; pacing and the consecutive-failure abort are applied per slice.
    """

    def __init__(self, provisioning_system: ProvisioningSystem,
                 operations: List[ProvisioningOperation],
                 pacing: float = 0.0,
                 abort_after_consecutive_failures: Optional[int] = None,
                 pipelined: bool = False):
        if pacing < 0:
            raise ValueError("pacing cannot be negative")
        if abort_after_consecutive_failures is not None and \
                abort_after_consecutive_failures < 1:
            raise ValueError("abort threshold must be at least 1")
        self.provisioning_system = provisioning_system
        self.operations = list(operations)
        self.pacing = pacing
        self.abort_after_consecutive_failures = abort_after_consecutive_failures
        self.pipelined = pipelined

    def run(self):
        """Generator: execute the batch; returns a :class:`BatchReport`."""
        sim = self.provisioning_system.udr.sim
        start = sim.now
        succeeded = 0
        failed_outcomes: List[ProvisioningOutcome] = []
        consecutive_failures = 0
        aborted = False
        for outcomes in self._outcome_slices():
            slice_outcomes = yield from outcomes
            # The whole slice has already executed against the UDR, so every
            # outcome is tallied even when the abort threshold trips midway;
            # the abort only stops *further* slices from being issued.
            for outcome in slice_outcomes:
                if outcome.succeeded:
                    succeeded += 1
                    consecutive_failures = 0
                else:
                    failed_outcomes.append(outcome)
                    consecutive_failures += 1
                    if self.abort_after_consecutive_failures is not None and \
                            consecutive_failures >= \
                            self.abort_after_consecutive_failures:
                        aborted = True
            if aborted:
                break
            if self.pacing:
                yield from sim.hold(self.pacing)
        return BatchReport(
            total_operations=len(self.operations),
            succeeded=succeeded,
            failed=len(failed_outcomes),
            duration=sim.now - start,
            failed_operations=failed_outcomes,
            abort_threshold=self.abort_after_consecutive_failures,
            aborted=aborted,
        )

    def _outcome_slices(self):
        """Generators yielding lists of outcomes: one per operation when
        sequential, one per ``batch_max_size`` slice when pipelined."""
        ps = self.provisioning_system
        if not self.pipelined:
            for operation in self.operations:
                yield self._provision_one(ps, operation)
            return
        size = max(1, ps.udr.config.batch_max_size)
        for begin in range(0, len(self.operations), size):
            yield ps.provision_pipelined(self.operations[begin:begin + size])

    @staticmethod
    def _provision_one(ps: ProvisioningSystem,
                       operation: ProvisioningOperation):
        outcome = yield from ps.provision(operation)
        return [outcome]
