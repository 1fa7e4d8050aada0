"""Commit log (write-ahead log) of a partition copy.

The commit log serves three purposes in the reproduction, mirroring its roles
in the paper's architecture:

* it is the unit of **durability**: a checkpoint marks everything up to a log
  sequence number (LSN) as safe on disk, anything after it is lost if the
  storage element crashes (section 3.1's periodic dump, footnote 6);
* it is the **replication stream**: the master ships log records, in LSN
  order, to the slave copies, which is what guarantees the identical
  serialisation order the paper requires (section 3.2).  A record carries
  the commit's own sized versions, and a slave installs those objects
  as they are;
* it is the **audit trail** used by the consistency-restoration process after
  a multi-master partition incident (section 5).

Everything else that follows a log -- the DIT catalog, the CDC change
stream, the chaos invariant checker and the replication mux -- does so
through one primitive, :meth:`WriteAheadLog.tap`.  A :class:`WalTap` runs
its listener synchronously after every append (optionally only for records
of one origin) and keeps a cursor, ``lsn``: the highest LSN the tap has
seen, filtered records included.  A paused tap stops both, and because
:meth:`WriteAheadLog.truncate_through` never cuts past the smallest cursor
of the open taps, a paused follower pins the log instead of losing
records; :meth:`WalTap.resume` replays what it missed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.storage.records import RecordVersion, reduce_slotted


@dataclass(frozen=True, init=False)
class LogRecord:
    """One committed transaction in the commit log.

    ``operations`` are the commit's own :class:`~repro.storage.records.
    RecordVersion` objects, one per written key: the master installs them,
    every slave that applies the record installs the same objects, and
    every tap folds them, so a write is sized once for the whole replica
    set.
    """

    __slots__ = ("lsn", "transaction_id", "commit_seq", "operations",
                 "origin", "timestamp", "epoch")

    lsn: int
    transaction_id: int
    commit_seq: int
    operations: Tuple[RecordVersion, ...]
    origin: str
    timestamp: float
    #: Promotion epoch of the mastership that committed the transaction
    #: (0 until the membership plane performs its first promotion).
    epoch: int

    def __init__(self, lsn: int, transaction_id: int, commit_seq: int,
                 operations: Tuple[RecordVersion, ...], origin: str = "",
                 timestamp: float = 0.0, epoch: int = 0):
        set_field = object.__setattr__
        set_field(self, "lsn", lsn)
        set_field(self, "transaction_id", transaction_id)
        set_field(self, "commit_seq", commit_seq)
        set_field(self, "operations", operations)
        set_field(self, "origin", origin)
        set_field(self, "timestamp", timestamp)
        set_field(self, "epoch", epoch)

    def __reduce__(self):
        return reduce_slotted(self)

    @property
    def keys(self) -> Tuple[str, ...]:
        return tuple(operation.key for operation in self.operations)

    @property
    def position(self) -> Tuple[int, int]:
        """Recency ordering key across promotion epochs."""
        return (self.epoch, self.commit_seq)

    def __repr__(self) -> str:
        return (f"<LogRecord lsn={self.lsn} tx={self.transaction_id} "
                f"keys={list(self.keys)}>")


class WalTap:
    """One follower of a commit log: a listener, a cursor and a pin.

    ``lsn`` is the highest LSN the tap has seen; it advances on every
    append while the tap is not ``paused``, whether or not the record
    passes the ``origin`` filter.  While the tap is open the log never
    truncates past ``lsn``.
    """

    __slots__ = ("wal", "listener", "origin", "lsn", "paused")

    def __init__(self, wal: "WriteAheadLog",
                 listener: Callable[[LogRecord], None],
                 origin: Optional[str] = None):
        self.wal = wal
        self.listener = listener
        self.origin = origin
        self.lsn = wal.last_lsn
        self.paused = False

    def _deliver(self, record: LogRecord) -> None:
        self.lsn = record.lsn
        if self.origin is None or record.origin == self.origin:
            self.listener(record)

    def resume(self) -> int:
        """Unpause and replay, in LSN order, every record missed while paused.

        Returns how many missed records truncation dropped before the
        replay.  The pin keeps that at 0; the count is the safety check.
        """
        self.paused = False
        lost = max(0, self.wal.truncated_through - self.lsn)
        for record in self.wal.since(self.lsn):
            self._deliver(record)
        return lost

    def close(self) -> None:
        """Stop notifying the listener and release the pin (idempotent)."""
        if self in self.wal._taps:
            self.wal._taps.remove(self)


@dataclass
class WriteAheadLog:
    """Append-only commit log with a durability watermark."""

    name: str = "wal"
    _records: List[LogRecord] = field(default_factory=list)
    _durable_lsn: int = 0
    _next_lsn: int = 1
    #: Highest LSN dropped by :meth:`truncate_through` (0 = none).
    truncated_through: int = field(default=0, init=False)
    _taps: List[WalTap] = field(default_factory=list, init=False,
                                repr=False, compare=False)

    # -- append ---------------------------------------------------------------

    def append(self, transaction_id: int, commit_seq: int,
               operations: Tuple[RecordVersion, ...],
               origin: str = "", timestamp: float = 0.0,
               epoch: int = 0) -> LogRecord:
        """Append a committed transaction and return its log record."""
        record = LogRecord(
            lsn=self._next_lsn,
            transaction_id=transaction_id,
            commit_seq=commit_seq,
            operations=tuple(operations),
            origin=origin,
            timestamp=timestamp,
            epoch=epoch,
        )
        self._next_lsn += 1
        self._records.append(record)
        self._notify(record)
        return record

    def append_record(self, record: LogRecord) -> LogRecord:
        """Append a pre-built record (replication apply), renumbering its LSN."""
        copy = LogRecord(
            lsn=self._next_lsn,
            transaction_id=record.transaction_id,
            commit_seq=record.commit_seq,
            operations=record.operations,
            origin=record.origin,
            timestamp=record.timestamp,
            epoch=record.epoch,
        )
        self._next_lsn += 1
        self._records.append(copy)
        self._notify(copy)
        return copy

    # -- taps -----------------------------------------------------------------

    def tap(self, listener: Callable[[LogRecord], None],
            origin: Optional[str] = None) -> WalTap:
        """Run ``listener(record)`` after every append from now on.

        With ``origin`` set, only records whose ``origin`` equals it reach
        the listener; the tap's cursor still advances past the others.
        """
        tap = WalTap(self, listener, origin)
        self._taps.append(tap)
        return tap

    @property
    def taps(self) -> Tuple[WalTap, ...]:
        return tuple(self._taps)

    @property
    def pinned_lsn(self) -> Optional[int]:
        """The smallest cursor of the open taps (``None`` when untapped)."""
        return min((tap.lsn for tap in self._taps), default=None)

    def _notify(self, record: LogRecord) -> None:
        for tap in tuple(self._taps):
            if not tap.paused:
                tap._deliver(record)

    # -- reading ----------------------------------------------------------------

    @property
    def records(self) -> List[LogRecord]:
        return list(self._records)

    @property
    def last_lsn(self) -> int:
        # An empty log is not necessarily a fresh log: retention may have
        # truncated every record (all durable and shipped), and a crash
        # cuts back to the durable prefix.  In both cases the durability
        # watermark is the highest surviving LSN; only a never-written
        # log reports 0.
        return self._records[-1].lsn if self._records else self._durable_lsn

    def since(self, lsn: int) -> List[LogRecord]:
        """Records with LSN strictly greater than ``lsn`` (oldest first).

        O(result) rather than O(log length) where the retained LSNs are
        dense (append numbers sequentially, truncation drops a prefix), so
        the cut-off is found by index arithmetic, checked against the
        record it lands on; past a crash's hole it falls back to a scan.
        The replication channels call this on every shipping round and
        every ``lag()`` sample, which made the old full scan the dominant
        cost of metrics sampling on large logs.
        """
        records = self._records
        if not records or lsn >= records[-1].lsn:
            return []
        first_lsn = records[0].lsn
        if lsn < first_lsn:
            return list(records)
        index = lsn - first_lsn + 1
        if 0 < index <= len(records) and records[index - 1].lsn == lsn:
            return records[index:]
        # A crash drops the volatile suffix but numbering carries on, so
        # an append after it leaves a hole (LSNs 1, 2, 3, 6); scan past it.
        return [record for record in records if record.lsn > lsn]

    def __len__(self) -> int:
        return len(self._records)

    # -- durability --------------------------------------------------------------

    @property
    def durable_lsn(self) -> int:
        """Highest LSN known to be safe on persistent storage."""
        return self._durable_lsn

    def mark_durable(self, lsn: int) -> None:
        """Advance the durability watermark (checkpoint completed)."""
        if lsn < self._durable_lsn:
            raise ValueError(
                f"durable LSN cannot move backwards ({lsn} < {self._durable_lsn})")
        self._durable_lsn = min(lsn, max(self.last_lsn, self._durable_lsn))

    def undurable_records(self) -> List[LogRecord]:
        """Committed records that would be lost if the element crashed now."""
        return self.since(self._durable_lsn)

    def truncate_through(self, lsn: int) -> int:
        """Drop records with LSN <= ``lsn`` (already checkpointed); returns count.

        Never cuts past :attr:`pinned_lsn`: a record an open tap has not
        seen stays in the log.
        """
        pinned = self.pinned_lsn
        if pinned is not None and pinned < lsn:
            lsn = pinned
        kept = [record for record in self._records if record.lsn > lsn]
        dropped = len(self._records) - len(kept)
        if dropped:
            self.truncated_through = self._records[dropped - 1].lsn
            self._records = kept
        return dropped

    def crash(self) -> List[LogRecord]:
        """Simulate losing the volatile tail of the log; returns what was lost."""
        lost = self.undurable_records()
        self._records = [record for record in self._records
                         if record.lsn <= self._durable_lsn]
        return lost

    def __repr__(self) -> str:
        return (f"<WriteAheadLog {self.name!r} records={len(self._records)} "
                f"durable_lsn={self._durable_lsn}>")
