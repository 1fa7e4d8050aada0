"""Asynchronous master-to-slave log shipping (the paper's baseline).

Section 3.3.1 decision 2: "Replication of writes from the master to the slave
copies is performed asynchronously, so execution of a transaction does not
have to wait until the corresponding write(s) have been propagated to the
slave replica(s)."

The channel tracks one ``(partition, slave element)`` stream: which records
of the current master's commit log the slave has not applied yet, and how to
apply them in commit order, preserving the master's serialisation order.
Partitions or element failures simply stall the stream; the growing gap is
the replication lag that produces stale slave reads (experiment E04) and
lost transactions on master crashes (experiment E05).

The :class:`~repro.replication.mux.ReplicationMux` is the only driver: it
owns every channel of a deployment, wakes on commit, and ships every channel
of one ``(master site, slave site)`` link in a single network transfer.  The
channel itself runs no process; it exposes its shipping state as the
primitives the mux drives: :meth:`endpoints`, :meth:`pending_records` and
:meth:`apply`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.replication.replica_set import ReplicaSet
from repro.storage.wal import LogRecord


@dataclass
class ReplicationLag:
    """How far a slave copy is behind its master."""

    records: int
    seconds: float

    @property
    def in_sync(self) -> bool:
        return self.records == 0


class AsyncReplicationChannel:
    """Ships commit-log records from the current master to one slave element."""

    def __init__(self, sim, replica_set: ReplicaSet, slave_element_name: str,
                 batch_limit: int = 500, bytes_per_record: int = 700):
        if batch_limit < 1:
            raise ValueError("batch limit must be at least 1")
        self.sim = sim
        self.replica_set = replica_set
        self.slave_element_name = slave_element_name
        self.batch_limit = batch_limit
        self.bytes_per_record = bytes_per_record
        # Shipped position is tracked per master element because a failover
        # switches to a different commit log with its own LSN space.
        self._shipped_lsn: Dict[str, int] = {}
        self.records_shipped = 0
        self.stalled_rounds = 0
        #: Shipped records rejected because the slave had already applied a
        #: newer promotion epoch (a deposed master's in-flight shipment).
        self.fenced_drops = 0

    # -- shipping state (driven by the mux) ---------------------------------------

    def endpoints(self):
        """``(master element, slave element)`` of the current binding.

        ``None`` while the partition has no master, or when this channel's
        slave *is* the master (after a fail-over promoted it) -- there is
        nothing to ship either way.
        """
        master_name = self.replica_set.master_element_name
        if master_name is None or master_name == self.slave_element_name:
            return None
        return (self.replica_set.element(master_name),
                self.replica_set.element(self.slave_element_name))

    def link_sites(self):
        """The ``(master site, slave site)`` pair shipments travel over."""
        ends = self.endpoints()
        if ends is None:
            return None
        return (ends[0].site, ends[1].site)

    def shipped_lsn(self, master_name: str) -> int:
        """The shipped cursor on ``master_name``'s log (0 = nothing yet).

        The replication mux's WAL-retention policy truncates a master log
        through the *minimum* of these cursors across its outgoing
        channels, so no record leaves the log before every slave has it.
        """
        return self._shipped_lsn.get(master_name, 0)

    def has_backlog(self) -> bool:
        """Whether the master's log holds records past the shipped cursor.

        O(1): compares the log's last LSN against the cursor, without
        scanning (some of the backlog may turn out to be already applied
        on the slave -- :meth:`pending_records` filters that).
        """
        master_name = self.replica_set.master_element_name
        if master_name is None or master_name == self.slave_element_name:
            return False
        master_copy = self.replica_set.copy_on(master_name)
        return master_copy.wal.last_lsn > self._shipped_lsn.get(master_name, 0)

    def pending_records(self) -> Tuple[Optional[str], List[LogRecord]]:
        """``(master name, records to ship)``, cheaply.

        O(pending) via the shipped-LSN cursor and the slave's applied
        sequence counter.  Records the slave already applied (e.g. after a
        fail-over, when the new master's log starts with history the slave
        replicated long ago) advance the cursor without being returned, so
        no record is ever applied twice.  At most ``batch_limit`` records
        are returned per call.
        """
        master_name = self.replica_set.master_element_name
        if master_name is None or master_name == self.slave_element_name:
            return None, []
        master_copy = self.replica_set.copy_on(master_name)
        shipped_lsn = self._shipped_lsn.get(master_name, 0)
        if master_copy.wal.last_lsn == shipped_lsn:
            # Idle: nothing committed since the last round (the common case).
            return master_name, []
        examined = master_copy.wal.since(shipped_lsn)[:self.batch_limit]
        applied_position = self.replica_set.copy_on(
            self.slave_element_name).store.last_applied_position
        pending = [record for record in examined
                   if record.position > applied_position]
        if not pending and examined:
            # Everything examined is already on the slave: advance past it
            # (only past what was actually examined -- a batch-limit
            # truncation must not skip unexamined records).
            self._shipped_lsn[master_name] = examined[-1].lsn
            return master_name, []
        return master_name, pending

    def apply(self, master_name: str, records: List[LogRecord]) -> int:
        """Apply shipped records to the slave copy, in commit order.

        Idempotent: records the slave applied since they were gathered
        (a re-binding or retry racing a shipment in flight) are skipped by
        their commit sequence, so no version is ever installed twice.
        """
        if not records:
            return 0
        slave_copy = self.replica_set.copy_on(self.slave_element_name)
        applied = 0
        for record in records:
            applied_position = slave_copy.store.last_applied_position
            if record.position <= applied_position:
                if record.epoch < applied_position[0]:
                    # A deposed master's shipment raced the promotion: the
                    # slave already carries a newer epoch, so the stale
                    # records are dropped instead of installed.
                    self.fenced_drops += 1
                continue
            slave_copy.transactions.apply_log_record(record)
            applied += 1
        self._shipped_lsn[master_name] = max(
            records[-1].lsn, self._shipped_lsn.get(master_name, 0))
        self.records_shipped += applied
        return applied

    # -- metrics -----------------------------------------------------------------------

    def lag(self) -> ReplicationLag:
        """Current lag of the slave behind the master copy.

        O(pending): the shipped-LSN cursor bounds the log scan and the
        slave's applied sequence filters the fail-over overlap, so metrics
        sampling no longer walks the whole log on large runs.
        """
        master_name = self.replica_set.master_element_name
        if master_name is None or master_name == self.slave_element_name:
            return ReplicationLag(records=0, seconds=0.0)
        master_copy = self.replica_set.copy_on(master_name)
        shipped_lsn = self._shipped_lsn.get(master_name, 0)
        if master_copy.wal.last_lsn == shipped_lsn:
            return ReplicationLag(records=0, seconds=0.0)
        applied_position = self.replica_set.copy_on(
            self.slave_element_name).store.last_applied_position
        pending = [record for record in master_copy.wal.since(shipped_lsn)
                   if record.position > applied_position]
        if not pending:
            return ReplicationLag(records=0, seconds=0.0)
        oldest = pending[0].timestamp
        return ReplicationLag(records=len(pending),
                              seconds=max(0.0, self.sim.now - oldest))

    def __repr__(self) -> str:
        return (f"<AsyncReplicationChannel {self.replica_set.partition.name}"
                f"->{self.slave_element_name} shipped={self.records_shipped} "
                f"stalled={self.stalled_rounds}>")
