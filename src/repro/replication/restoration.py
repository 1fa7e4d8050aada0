"""Post-partition consistency restoration (paper section 5).

After a multi-master partition incident the copies of a partition hold
diverging views.  The restoration process scans the copies, detects forked
keys, resolves each conflict with the configured
:class:`~repro.replication.conflict.ConflictResolver`, writes the surviving
value back to every copy and brings lagging copies up to date.  The report it
returns quantifies the price of choosing Availability during the partition:
how many keys had to be repaired, how many updates were overwritten, and how
long the scan takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.replication.conflict import (
    ConflictResolver,
    KeyConflict,
    LastWriterWinsResolver,
    detect_conflicts,
)
from repro.replication.replica_set import ReplicaSet
from repro.sim import units
from repro.storage.records import RecordVersion
from repro.storage.storage_element import PartitionCopy


@dataclass
class RestorationReport:
    """Outcome of one consistency-restoration run over a replica set."""

    partition_name: str
    keys_scanned: int = 0
    conflicts_found: int = 0
    conflicts_resolved: int = 0
    lagging_keys_repaired: int = 0
    records_written: int = 0
    estimated_duration: float = 0.0
    resolver_name: str = ""
    conflicts: List[KeyConflict] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the copies were already consistent."""
        return self.conflicts_found == 0 and self.lagging_keys_repaired == 0


class ConsistencyRestoration:
    """Merges the diverged copies of a partition back into one view.

    Parameters
    ----------
    resolver:
        Conflict resolution policy; defaults to last-writer-wins.
    scan_cost_per_key:
        Estimated processing time per scanned key, used to report how long a
        real restoration pass would occupy the UDR (the paper stresses that
        this runs "across the whole UDR NF").
    repair_cost_per_key:
        Additional time per conflicted or lagging key that must be rewritten.
    """

    def __init__(self, resolver: Optional[ConflictResolver] = None,
                 scan_cost_per_key: float = 20 * units.MICROSECOND,
                 repair_cost_per_key: float = 500 * units.MICROSECOND):
        self.resolver = resolver or LastWriterWinsResolver()
        self.scan_cost_per_key = scan_cost_per_key
        self.repair_cost_per_key = repair_cost_per_key

    def restore(self, replica_set: ReplicaSet,
                timestamp: float = 0.0) -> RestorationReport:
        """Run the restoration over all copies of ``replica_set``."""
        copies: Dict[str, PartitionCopy] = {
            name: replica_set.copy_on(name)
            for name in replica_set.member_names}
        report = RestorationReport(
            partition_name=replica_set.partition.name,
            resolver_name=self.resolver.name)
        all_keys: set = set()
        for copy in copies.values():
            all_keys.update(copy.store.versioned_keys())
        report.keys_scanned = len(all_keys)

        conflicts = detect_conflicts(copies)
        report.conflicts_found = len(conflicts)
        report.conflicts = conflicts
        conflicted_keys = {conflict.key for conflict in conflicts}

        next_seq = 1 + max(
            (copy.store.last_applied_seq for copy in copies.values()),
            default=0)

        # Resolve forked keys: write the surviving value everywhere.
        for conflict in conflicts:
            survivor = self.resolver.resolve(conflict)
            for name, copy in copies.items():
                copy.store.apply_version(RecordVersion(
                    key=conflict.key, value=survivor, commit_seq=next_seq,
                    transaction_id=0, origin="restoration"))
                report.records_written += 1
            next_seq += 1
            report.conflicts_resolved += 1

        # Catch up lagging copies on keys that did not fork.
        for key in sorted(all_keys - conflicted_keys):
            newest: Optional[RecordVersion] = None
            for copy in copies.values():
                version = copy.store.latest(key)
                if version is not None and (
                        newest is None or version.commit_seq > newest.commit_seq):
                    newest = version
            if newest is None:
                continue
            repaired = False
            for copy in copies.values():
                current = copy.store.latest(key)
                if current is None or current.commit_seq < newest.commit_seq:
                    copy.store.apply_version(newest)
                    report.records_written += 1
                    repaired = True
            if repaired:
                report.lagging_keys_repaired += 1

        repaired_keys = report.conflicts_resolved + report.lagging_keys_repaired
        report.estimated_duration = (
            report.keys_scanned * self.scan_cost_per_key
            + repaired_keys * self.repair_cost_per_key)
        return report
