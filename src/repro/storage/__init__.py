"""Storage element substrate: RAM-resident record store with transactions.

The paper's UDR keeps all subscriber data in RAM across many limited-size
*storage elements* (SE).  Each SE:

* holds the **primary copy of one data partition** and secondary copies of
  one or two others (section 2.3),
* provides **ACID transactions local to the SE** at READ_COMMITTED isolation
  (section 3.2) -- cross-SE transactions get no guarantees,
* dumps its RAM contents to local disk **periodically** (section 3.1), so a
  crash loses the transactions committed after the last dump unless they were
  already replicated.

This package implements those mechanics as a deterministic, synchronous
functional layer: an MVCC record store, a lock manager, a transaction
manager, a write-ahead/commit log (which doubles as the replication stream),
checkpointing with an explicit data-loss window, data partitioning, and the
:class:`~repro.storage.storage_element.StorageElement` that ties them
together.
"""

from repro.storage.errors import (
    IsolationError,
    RecordNotFound,
    StorageElementUnavailable,
    StorageError,
    TransactionAborted,
    TransactionStateError,
    WriteConflict,
)
from repro.storage.isolation import IsolationLevel
from repro.storage.records import TOMBSTONE, RecordVersion, record_size
from repro.storage.engine import RecordStore
from repro.storage.locks import LockManager, LockMode
from repro.storage.wal import LogRecord, WriteAheadLog
from repro.storage.transactions import Transaction, TransactionManager
from repro.storage.checkpoint import CheckpointPolicy, Checkpointer
from repro.storage.partitioning import (
    DataPartition,
    PartitionLayout,
    PartitionScheme,
)
from repro.storage.storage_element import (
    PartitionCopy,
    ReplicaRole,
    ServiceTimeModel,
    StorageElement,
)

__all__ = [
    "CheckpointPolicy",
    "Checkpointer",
    "DataPartition",
    "IsolationError",
    "IsolationLevel",
    "LockManager",
    "LockMode",
    "LogRecord",
    "PartitionCopy",
    "PartitionLayout",
    "PartitionScheme",
    "RecordNotFound",
    "RecordStore",
    "RecordVersion",
    "ReplicaRole",
    "ServiceTimeModel",
    "StorageElement",
    "StorageElementUnavailable",
    "StorageError",
    "TOMBSTONE",
    "Transaction",
    "TransactionAborted",
    "TransactionManager",
    "TransactionStateError",
    "WriteAheadLog",
    "WriteConflict",
    "record_size",
]
