"""The storage element (SE): the paper's unit of storage, ACID and failure.

A storage element is a shared-nothing group of two to four blades holding one
primary partition copy and one or two secondary copies in RAM.  Intra-element
redundancy means single-blade failures do not lose data or availability; the
interesting failures are whole-SE crashes (RAM contents gone, fall back to
the last disk dump) and site disasters.

The SE exposes:

* transactional access to each hosted partition copy
  (:class:`PartitionCopy` wraps store + WAL + transaction manager +
  checkpointer),
* a service-time model so the simulation layer can charge realistic
  processing delays per operation,
* crash / recovery with explicit accounting of lost transactions (the
  durability experiments read these counters).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim import units
from repro.storage.checkpoint import CheckpointPolicy, Checkpointer
from repro.storage.engine import RecordStore
from repro.storage.errors import StorageElementUnavailable
from repro.storage.isolation import IsolationLevel
from repro.storage.partitioning import DataPartition
from repro.storage.transactions import TransactionManager
from repro.storage.wal import LogRecord, WalTap, WriteAheadLog


class ReplicaRole(enum.Enum):
    """Role of a partition copy hosted on a storage element."""

    PRIMARY = "primary"
    SECONDARY = "secondary"


@dataclass
class ServiceTimeModel:
    """Per-operation processing times of a storage element.

    The defaults are derived from the paper's throughput figures: an SE that
    sustains its share of 1M LDAP operations per second per LDAP server has
    per-operation engine costs in the tens of microseconds; commit adds log
    and replication bookkeeping.
    """

    read_time: float = 30 * units.MICROSECOND
    write_time: float = 60 * units.MICROSECOND
    commit_time: float = 100 * units.MICROSECOND
    sync_commit_penalty: float = 5 * units.MILLISECOND

    def transaction_time(self, reads: int, writes: int,
                         synchronous_commit: bool = False) -> float:
        """Engine time for a transaction with the given operation counts."""
        total = self.operation_time(reads, writes)
        if writes:
            total += self.commit_charge(synchronous_commit)
        return total

    def operation_time(self, reads: int, writes: int) -> float:
        """Per-operation engine time, excluding the commit bookkeeping.

        Coalesced multi-record transactions charge this per record and
        :meth:`commit_charge` once for the whole group.
        """
        return reads * self.read_time + writes * self.write_time

    def commit_charge(self, synchronous_commit: bool = False) -> float:
        """The commit bookkeeping cost of one (possibly multi-record) txn."""
        total = self.commit_time
        if synchronous_commit:
            total += self.sync_commit_penalty
        return total

    def scaled(self, factor: float) -> "ServiceTimeModel":
        """A copy with every time multiplied by ``factor`` (e.g. dump penalty)."""
        return ServiceTimeModel(
            read_time=self.read_time * factor,
            write_time=self.write_time * factor,
            commit_time=self.commit_time * factor,
            sync_commit_penalty=self.sync_commit_penalty,
        )


class PartitionCopy:
    """One copy (primary or secondary) of a data partition on an SE."""

    def __init__(self, partition: DataPartition, role: ReplicaRole,
                 element_name: str,
                 checkpoint_policy: Optional[CheckpointPolicy] = None,
                 isolation: IsolationLevel = IsolationLevel.READ_COMMITTED):
        self.partition = partition
        self.role = role
        self.element_name = element_name
        name = f"{element_name}:{partition.name}:{role.value}"
        self.store = RecordStore(name=name)
        self.wal = WriteAheadLog(name=name)
        self.transactions = TransactionManager(
            self.store, self.wal, name=name, default_isolation=isolation)
        self.checkpointer = Checkpointer(
            self.store, self.wal, policy=checkpoint_policy)

    @property
    def is_primary(self) -> bool:
        return self.role is ReplicaRole.PRIMARY

    def tap_local_commits(self, listener: Callable[[LogRecord], None]
                          ) -> WalTap:
        """Tap this copy's log for the commits this copy itself made.

        Replication applies keep the originating master's name as their
        ``origin``, so a follower that taps every member copy of a
        partition this way sees each logical commit exactly once -- on the
        copy that made it.  The wiring needs no change on fail-over: a
        promoted copy's own commits carry its own name.
        """
        return self.wal.tap(listener, origin=self.transactions.name)

    def promote(self) -> None:
        """Turn a secondary copy into the primary (failover)."""
        self.role = ReplicaRole.PRIMARY

    def demote(self) -> None:
        self.role = ReplicaRole.SECONDARY

    def __repr__(self) -> str:
        return (f"<PartitionCopy {self.partition.name} {self.role.value} "
                f"on {self.element_name} records={len(self.store)}>")


class StorageElement:
    """A limited-size, shared-nothing storage element.

    Parameters
    ----------
    name:
        Unique element name, e.g. ``"se-spain-dc1-0"``.
    site:
        The :class:`repro.net.topology.Site` hosting the element (opaque to
        this module; used by the network layer).
    blades:
        Number of blades in the element (the paper uses two to four).
    ram_bytes:
        RAM available for subscriber data (the paper's ~200 GB per SE).
    subscriber_capacity:
        Nominal subscribers an SE can hold (the paper's 2 million for a
        2-blade SE); used by the capacity planner and admission checks.
    """

    def __init__(self, name: str, site=None, blades: int = 2,
                 ram_bytes: int = 200 * units.GIB,
                 subscriber_capacity: int = 2_000_000,
                 service_times: Optional[ServiceTimeModel] = None,
                 checkpoint_policy: Optional[CheckpointPolicy] = None,
                 isolation: IsolationLevel = IsolationLevel.READ_COMMITTED):
        if blades < 2:
            raise ValueError("a storage element needs at least two blades")
        self.name = name
        self.site = site
        self.blades = blades
        self.ram_bytes = ram_bytes
        self.subscriber_capacity = subscriber_capacity
        self.service_times = service_times or ServiceTimeModel()
        self.checkpoint_policy = checkpoint_policy or CheckpointPolicy()
        self.isolation = isolation
        self._copies: Dict[int, PartitionCopy] = {}
        self._failed_blades = 0
        self._available = True
        self.crashes = 0
        self.lost_transactions = 0
        self.total_downtime = 0.0
        self._down_since: Optional[float] = None

    # -- copies ---------------------------------------------------------------

    def add_copy(self, partition: DataPartition,
                 role: ReplicaRole) -> PartitionCopy:
        """Host a copy of ``partition`` with the given role."""
        if partition.index in self._copies:
            raise ValueError(
                f"{self.name} already hosts a copy of {partition.name}")
        copy = PartitionCopy(
            partition, role, element_name=self.name,
            checkpoint_policy=self.checkpoint_policy,
            isolation=self.isolation)
        self._copies[partition.index] = copy
        return copy

    def copy_of(self, partition: DataPartition) -> PartitionCopy:
        try:
            return self._copies[partition.index]
        except KeyError:
            raise KeyError(
                f"{self.name} hosts no copy of {partition.name}") from None

    def hosts(self, partition: DataPartition) -> bool:
        return partition.index in self._copies

    @property
    def copies(self) -> List[PartitionCopy]:
        return [self._copies[index] for index in sorted(self._copies)]

    @property
    def primary_copies(self) -> List[PartitionCopy]:
        return [copy for copy in self.copies if copy.is_primary]

    # -- availability ------------------------------------------------------------

    @property
    def available(self) -> bool:
        return self._available

    def require_available(self) -> None:
        if not self._available:
            raise StorageElementUnavailable(self.name, reason="crashed")

    def blade_failure(self) -> bool:
        """One blade fails.  Returns True if the whole element went down.

        Intra-element redundancy keeps the SE up until fewer than two healthy
        blades remain (data is mirrored across blade pairs).
        """
        self._failed_blades = min(self.blades, self._failed_blades + 1)
        if self.blades - self._failed_blades < 1:
            self.crash()
            return True
        return False

    def blade_repair(self) -> None:
        self._failed_blades = max(0, self._failed_blades - 1)

    @property
    def failed_blades(self) -> int:
        return self._failed_blades

    def crash(self, timestamp: float = 0.0) -> List[LogRecord]:
        """Whole-element crash: RAM is lost, state reverts to the last dump.

        Returns the commit-log records lost on this element.  Whether those
        transactions are lost *by the system* depends on replication, which
        is the durability experiment's job to assess.
        """
        if not self._available:
            return []
        self._available = False
        self.crashes += 1
        self._down_since = timestamp
        lost: List[LogRecord] = []
        for copy in self.copies:
            lost.extend(copy.checkpointer.crash_and_recover())
        self.lost_transactions += len(lost)
        return lost

    def recover(self, timestamp: float = 0.0) -> None:
        """Bring the element back with the state recovered from disk."""
        if self._available:
            return
        self._available = True
        self._failed_blades = 0
        if self._down_since is not None:
            self.total_downtime += max(0.0, timestamp - self._down_since)
            self._down_since = None

    # -- capacity -----------------------------------------------------------------

    @property
    def memory_used(self) -> int:
        return sum(copy.store.live_bytes for copy in self.copies)

    @property
    def memory_utilisation(self) -> float:
        if self.ram_bytes <= 0:
            return 0.0
        return self.memory_used / self.ram_bytes

    def subscriber_count(self) -> int:
        """Live records in the primary copies (each subscriber is one record)."""
        return sum(len(copy.store) for copy in self._copies.values()
                   if copy.is_primary)

    def has_capacity_for(self, additional_subscribers: int = 1) -> bool:
        return (self.subscriber_count() + additional_subscribers
                <= self.subscriber_capacity)

    def __repr__(self) -> str:
        state = "up" if self._available else "down"
        return (f"<StorageElement {self.name!r} {state} blades={self.blades} "
                f"copies={len(self._copies)}>")
