"""Transactions local to one storage element (the paper's ACID unit).

The paper guarantees ACID only for transactions that touch a single storage
element, at READ_COMMITTED isolation; transactions spanning elements are the
client's problem (READ_UNCOMMITTED at best).  This module implements the
intra-element part: a :class:`TransactionManager` per partition copy, with
no-wait write locking, MVCC reads at four isolation levels, and commit records
appended to the copy's write-ahead log.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.storage.engine import RecordStore
from repro.storage.errors import (
    FencedError,
    RecordNotFound,
    TransactionStateError,
    WriteConflict,
)
from repro.storage.isolation import IsolationLevel
from repro.storage.locks import LockManager, LockMode
from repro.storage.records import (
    TOMBSTONE,
    RecordVersion,
    merge_attributes,
    resized,
)
from repro.storage.wal import LogRecord, WriteAheadLog


class TransactionState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Savepoint:
    """A marker inside an active transaction that writes can roll back to.

    Used by multi-record transactions (coalesced batch writes): each record
    takes a savepoint before applying, and a failing record rolls back to it
    so only *its* writes are discarded while the surviving records commit
    together.  Locks taken after the savepoint are kept until the
    transaction completes -- rollback only undoes data, never lock
    ownership.
    """

    transaction_id: int
    writes: Dict[str, Any]


class Transaction:
    """A unit of work against one partition copy.

    Obtained from :meth:`TransactionManager.begin`; not constructed directly.
    Reads honour the isolation level, writes take exclusive no-wait locks,
    and :meth:`commit` atomically installs all writes and appends one commit
    log record.
    """

    def __init__(self, manager: "TransactionManager", transaction_id: int,
                 isolation: IsolationLevel, snapshot_seq: int):
        self._manager = manager
        self.transaction_id = transaction_id
        self.isolation = isolation
        self.snapshot_seq = snapshot_seq
        self.state = TransactionState.ACTIVE
        self._writes: Dict[str, Any] = {}
        #: key -> (merged value, base it was merged onto, changed names)
        #: of the latest :meth:`modify`; the commit trusts it only while
        #: the merged value is still the key's write and the base is
        #: still the store's latest value.
        self._deltas: Dict[str, Tuple[Dict[str, Any], Mapping[str, Any],
                                      Tuple[str, ...]]] = {}

    # -- helpers -------------------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self.state is TransactionState.ACTIVE

    @property
    def is_read_only(self) -> bool:
        return not self._writes

    @property
    def write_keys(self) -> List[str]:
        return list(self._writes)

    def _require_active(self) -> None:
        if not self.is_active:
            raise TransactionStateError(
                f"transaction {self.transaction_id} is {self.state.value}")

    # -- reads ----------------------------------------------------------------

    def read(self, key: str) -> Any:
        """Read a record according to the transaction's isolation level."""
        self._require_active()
        if key in self._writes:
            value = self._writes[key]
            if value is TOMBSTONE:
                raise RecordNotFound(key)
            return value
        store = self._manager.store
        if self.isolation.takes_read_locks:
            self._manager.locks.acquire(self.transaction_id, key,
                                        LockMode.SHARED)
        if self.isolation.allows_dirty_reads:
            dirty = store.dirty_value(key)
            if dirty is not None:
                if dirty is TOMBSTONE:
                    raise RecordNotFound(key)
                return dirty
            return store.read_committed(key)
        if self.isolation.uses_snapshot:
            return store.as_of(key, self.snapshot_seq)
        return store.read_committed(key)

    def read_or_default(self, key: str, default: Any = None) -> Any:
        """Like :meth:`read` but returning ``default`` for missing records."""
        try:
            return self.read(key)
        except RecordNotFound:
            return default

    def exists(self, key: str) -> bool:
        try:
            self.read(key)
            return True
        except RecordNotFound:
            return False

    # -- writes ----------------------------------------------------------------

    def write(self, key: str, value: Any) -> None:
        """Write (create or replace) a record."""
        self._require_active()
        if self._manager.fenced:
            self._manager.fenced_rejections += 1
            self.abort(reason="copy is fenced")
            raise FencedError(self._manager.name, self._manager.epoch,
                              reason=self._manager.fence_reason)
        try:
            self._manager.locks.acquire(self.transaction_id, key,
                                        LockMode.EXCLUSIVE)
        except WriteConflict:
            self.abort(reason=f"write conflict on {key!r}")
            raise
        self._writes[key] = value
        self._manager.store.register_dirty(self.transaction_id, key, value)

    def modify(self, key: str, changes: Mapping[str, Any],
               must_exist: bool = False) -> Dict[str, Any]:
        """Read-modify-write of an attribute map; returns the new value.

        A missing record counts as an empty map, or raises
        :class:`RecordNotFound` (before anything is written) with
        ``must_exist``.
        """
        current = (self.read(key) if must_exist
                   else self.read_or_default(key, default={}))
        if not isinstance(current, Mapping):
            raise TypeError(f"record {key!r} is not an attribute map")
        updated = merge_attributes(current, changes)
        self.write(key, updated)
        self._deltas[key] = (updated, current, tuple(changes))
        return updated

    def delete(self, key: str) -> None:
        """Delete a record (writes a tombstone version)."""
        self.write(key, TOMBSTONE)

    # -- savepoints ---------------------------------------------------------------

    def savepoint(self) -> Savepoint:
        """Mark the current write set; see :class:`Savepoint`."""
        self._require_active()
        return Savepoint(transaction_id=self.transaction_id,
                         writes=dict(self._writes))

    def rollback_to(self, savepoint: Savepoint) -> None:
        """Discard every write made after ``savepoint`` was taken.

        Dirty registrations of the rolled-back keys are cleared (re-registered
        for keys the savepoint still holds); locks stay with the transaction.
        """
        self._require_active()
        if savepoint.transaction_id != self.transaction_id:
            raise TransactionStateError(
                f"savepoint belongs to transaction "
                f"{savepoint.transaction_id}, not {self.transaction_id}")
        rolled_back = [key for key in self._writes
                       if key not in savepoint.writes]
        self._manager.store.clear_dirty(self.transaction_id, rolled_back)
        self._writes = dict(savepoint.writes)
        for key, value in self._writes.items():
            self._manager.store.register_dirty(self.transaction_id, key,
                                               value)

    # -- completion ---------------------------------------------------------------

    def commit(self, timestamp: float = 0.0) -> Optional[LogRecord]:
        """Atomically install all writes; returns the commit log record.

        Read-only transactions return ``None`` (nothing to log or replicate).
        """
        self._require_active()
        if self._writes and self._manager.fenced:
            # The membership plane fenced this copy while the transaction
            # was in flight: the deposed master must not durably commit.
            self._manager.fenced_rejections += 1
            self.abort(reason="copy fenced before commit")
            raise FencedError(self._manager.name, self._manager.epoch,
                              reason=self._manager.fence_reason)
        record = self._manager._commit(self, timestamp=timestamp)
        self.state = TransactionState.COMMITTED
        return record

    def abort(self, reason: str = "") -> None:
        """Discard all writes and release locks."""
        if self.state is TransactionState.ABORTED:
            return
        self._require_active()
        self._manager._abort(self, reason=reason)
        self.state = TransactionState.ABORTED

    def __repr__(self) -> str:
        return (f"<Transaction {self.transaction_id} {self.state.value} "
                f"isolation={self.isolation.value} writes={len(self._writes)}>")


class TransactionManager:
    """Creates and completes transactions for one partition copy."""

    def __init__(self, store: RecordStore, wal: WriteAheadLog,
                 name: str = "copy",
                 default_isolation: IsolationLevel = IsolationLevel.READ_COMMITTED):
        self.store = store
        self.wal = wal
        self.name = name
        self.default_isolation = default_isolation
        self.locks = LockManager()
        self._next_transaction_id = 1
        self._next_commit_seq = 1
        self.commits = 0
        self.aborts = 0
        self.read_only_commits = 0
        #: Promotion epoch stamped into this copy's commits (0 until the
        #: membership plane performs a promotion involving this copy).
        self.epoch = 0
        #: While fenced, write transactions are rejected with
        #: :class:`~repro.storage.errors.FencedError` (reads still serve).
        self.fenced = False
        self.fence_reason = "fenced"
        self.fenced_rejections = 0

    # -- epoch fencing ---------------------------------------------------------

    def promote_epoch(self, epoch: int) -> None:
        """This copy is the master of ``epoch``: stamp commits, lift fences."""
        if epoch < self.epoch:
            raise ValueError(
                f"epoch cannot move backwards ({epoch} < {self.epoch})")
        self.epoch = epoch
        self.fenced = False
        self.fence_reason = "fenced"

    def fence(self, epoch: int, reason: str = "deposed by promotion") -> None:
        """A newer epoch deposed this copy: reject its in-flight writes."""
        self.epoch = max(self.epoch, epoch)
        self.fenced = True
        self.fence_reason = reason

    def self_fence(self, reason: str = "lease lost") -> None:
        """The copy lost quorum contact and fences itself pre-emptively."""
        self.fenced = True
        self.fence_reason = reason

    def unfence(self) -> None:
        """Lift a self-imposed fence (quorum contact regained, same epoch)."""
        self.fenced = False
        self.fence_reason = "fenced"

    # -- lifecycle ------------------------------------------------------------

    def begin(self, isolation: Optional[IsolationLevel] = None) -> Transaction:
        """Start a new transaction at the given (or default) isolation level."""
        isolation = isolation or self.default_isolation
        transaction = Transaction(
            manager=self,
            transaction_id=self._next_transaction_id,
            isolation=isolation,
            snapshot_seq=self.store.last_applied_seq,
        )
        self._next_transaction_id += 1
        return transaction

    def run(self, body: Callable[[Transaction], Any],
            isolation: Optional[IsolationLevel] = None,
            timestamp: float = 0.0) -> Any:
        """Run ``body(transaction)`` and commit; aborts and re-raises on error."""
        transaction = self.begin(isolation)
        try:
            result = body(transaction)
        except BaseException:
            if transaction.is_active:
                transaction.abort(reason="exception in transaction body")
            raise
        transaction.commit(timestamp=timestamp)
        return result

    def _commit(self, transaction: Transaction,
                timestamp: float = 0.0) -> Optional[LogRecord]:
        writes = transaction._writes
        try:
            if not writes:
                self.read_only_commits += 1
                self.commits += 1
                return None
            commit_seq = self._next_commit_seq
            self._next_commit_seq += 1
            versions = tuple(self._version(transaction, key, value, commit_seq)
                             for key, value in writes.items())
            record = self.wal.append(
                transaction_id=transaction.transaction_id,
                commit_seq=commit_seq,
                operations=versions,
                origin=self.name,
                timestamp=timestamp,
                epoch=self.epoch,
            )
            for version in versions:
                self.store.apply_version(version)
            self.commits += 1
            return record
        finally:
            self.store.clear_dirty(transaction.transaction_id, list(writes))
            self.locks.release_all(transaction.transaction_id)

    def _version(self, transaction: Transaction, key: str, value: Any,
                 commit_seq: int) -> RecordVersion:
        """The one version a commit installs for ``key``, sized once.

        A :meth:`Transaction.modify` whose merged value is still the
        write, merged onto what is still the store's latest value, is
        sized from that value's size and the changed attributes alone;
        anything else is sized in full.
        """
        delta = transaction._deltas.get(key)
        if delta is not None and delta[0] is value:
            _merged, base, changed = delta
            size = self.store.latest_size(key)
            if size is not None and self.store.get(key) is base:
                return RecordVersion(key, value, commit_seq,
                                     transaction.transaction_id, self.name,
                                     self.epoch,
                                     resized(size, base, value, changed),
                                     changed, base)
        return RecordVersion(key, value, commit_seq,
                             transaction.transaction_id, self.name,
                             self.epoch)

    def _abort(self, transaction: Transaction, reason: str = "") -> None:
        self.aborts += 1
        self.store.clear_dirty(transaction.transaction_id,
                               transaction.write_keys)
        self.locks.release_all(transaction.transaction_id)

    # -- replication apply -------------------------------------------------------

    def apply_log_record(self, record: LogRecord) -> LogRecord:
        """Apply a master's commit record to this (slave) copy.

        The master's commit sequence number is preserved, which is the
        mechanism that gives every slave exactly the master's serialisation
        order (section 3.2 of the paper).  The record's operations are the
        master's own versions, already sized; the slave installs those
        objects unchanged.
        """
        for version in record.operations:
            self.store.apply_version(version)
        self._next_commit_seq = max(self._next_commit_seq,
                                    record.commit_seq + 1)
        return self.wal.append_record(record)

    @property
    def last_commit_seq(self) -> int:
        return self._next_commit_seq - 1

    def __repr__(self) -> str:
        return (f"<TransactionManager {self.name!r} commits={self.commits} "
                f"aborts={self.aborts}>")
