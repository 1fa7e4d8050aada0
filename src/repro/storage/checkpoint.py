"""Periodic RAM-to-disk checkpointing (the paper's section 3.1 decision 1).

Every storage element "saves data in RAM to local persistent storage on a
periodic basis".  Two quantities matter for the F-R trade-off the paper
describes:

* the **data-loss window**: a crash loses every transaction committed after
  the last completed dump (unless replication already shipped it elsewhere);
* the **throughput penalty**: dumping steals CPU/IO from the storage engine,
  so shorter periods cost more speed (footnote 6 also describes the extreme
  case of dumping each transaction synchronously before commit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.sim import units
from repro.storage.engine import RecordStore
from repro.storage.wal import LogRecord, WriteAheadLog


@dataclass
class CheckpointPolicy:
    """Configuration of the periodic dump.

    Parameters
    ----------
    period:
        Seconds between dumps.  The paper does not publish a figure; 15
        minutes is used as the default planning value.
    synchronous_commit:
        When True every commit is forced to disk before acknowledging
        (footnote 6's "100% guaranteed durability" mode).
    disk_bandwidth:
        Sustained sequential write bandwidth of the local disk, bytes/second.
    sync_write_latency:
        Extra latency added to every commit under ``synchronous_commit``.
    """

    period: float = 15 * units.MINUTE
    synchronous_commit: bool = False
    disk_bandwidth: float = 200 * units.MIB
    sync_write_latency: float = 5 * units.MILLISECOND

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("checkpoint period must be positive")
        if self.disk_bandwidth <= 0:
            raise ValueError("disk bandwidth must be positive")
        if self.sync_write_latency < 0:
            raise ValueError("sync write latency cannot be negative")

    # -- analytic F-R trade-off ----------------------------------------------

    def dump_duration(self, data_bytes: int) -> float:
        """Seconds one full dump of ``data_bytes`` takes."""
        return data_bytes / self.disk_bandwidth

    def throughput_penalty(self, data_bytes: int) -> float:
        """Fraction of engine capacity consumed by dumping (0.0 - 1.0).

        With synchronous commit the penalty is dominated by the per-commit
        disk write and is reported as 1.0 here only when dumps would overlap;
        the per-commit latency is accounted separately by the service-time
        model.
        """
        if data_bytes <= 0:
            return 0.0
        return min(1.0, self.dump_duration(data_bytes) / self.period)

    def expected_loss_window(self) -> float:
        """Mean age of the newest durable transaction at a random crash time."""
        if self.synchronous_commit:
            return 0.0
        return self.period / 2.0

    def worst_case_loss_window(self) -> float:
        if self.synchronous_commit:
            return 0.0
        return self.period


class Checkpointer:
    """Takes and restores checkpoints for one partition copy."""

    def __init__(self, store: RecordStore, wal: WriteAheadLog,
                 policy: Optional[CheckpointPolicy] = None):
        self.store = store
        self.wal = wal
        self.policy = policy or CheckpointPolicy()
        self._snapshot: Dict[str, Any] = {}
        self._snapshot_seq = 0
        self.checkpoints_taken = 0
        self.last_checkpoint_time: Optional[float] = None

    def checkpoint(self, timestamp: float = 0.0) -> int:
        """Dump the committed state to "disk"; returns the durable LSN."""
        self._snapshot = self.store.snapshot()
        self._snapshot_seq = self.store.last_applied_seq
        durable_lsn = self.wal.last_lsn
        self.wal.mark_durable(durable_lsn)
        self.checkpoints_taken += 1
        self.last_checkpoint_time = timestamp
        return durable_lsn

    def sync_commit(self) -> None:
        """Force the log durable up to its tail (synchronous-commit mode)."""
        self.wal.mark_durable(self.wal.last_lsn)

    def crash_and_recover(self) -> List[LogRecord]:
        """Simulate an SE crash: revert to the last dump, return lost commits.

        Under synchronous commit nothing is lost (the log tail was already
        durable); otherwise every record after the durability watermark
        disappears along with the volatile RAM image.
        """
        lost = self.wal.crash()
        self.store.restore(self._snapshot, commit_seq=self._snapshot_seq)
        if not lost:
            return []
        # Records made durable individually (sync commits) are replayed.
        return lost

    @property
    def snapshot_seq(self) -> int:
        return self._snapshot_seq

    def undurable_commit_count(self) -> int:
        """Committed transactions currently exposed to loss on a crash."""
        return len(self.wal.undurable_records())

    def __repr__(self) -> str:
        return (f"<Checkpointer checkpoints={self.checkpoints_taken} "
                f"snapshot_seq={self._snapshot_seq}>")
