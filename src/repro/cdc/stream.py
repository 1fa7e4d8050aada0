"""WAL-tap change stream: ordered, idempotent-by-commit-seq change events.

The stream taps *every* member copy of every data partition for the
commits that copy itself made
(:meth:`~repro.storage.storage_element.PartitionCopy.tap_local_commits`),
exactly like the DIT catalog does, so each logical commit folds once and
the wiring survives fail-over.

On top of the origin filter the stream deduplicates by ``commit_seq`` per
partition, which makes delivery idempotent under re-delivery (a replayed
or re-applied record with an already-folded sequence number is counted in
``cdc.duplicates`` and dropped).  Per-partition event order is therefore
the master's serialisation order -- the same order every slave applies.

Each tap is a :class:`~repro.storage.wal.WalTap`, whose cursor is the
highest LSN the stream has seen on that log.  The log never truncates past
an open tap's cursor, so a paused stream (e.g. a consumer catching up)
pins the log instead of losing events, and :meth:`ChangeStream.resume`
replays the suffix it missed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.storage.records import RecordVersion, reduce_slotted
from repro.storage.wal import LogRecord, WalTap


@dataclass(frozen=True, init=False)
class ChangeEvent:
    """One logical commit of one data partition, as seen by the CDC plane.

    ``operations`` are the commit's own :class:`~repro.storage.records.
    RecordVersion` objects (the ones the log record carries and every copy
    installs), so a version's ``changed``/``base`` reach the consumers.
    Slotted like ``RecordVersion`` (see there for why not ``slots=True``):
    the stream retains one event per commit.
    """

    __slots__ = ("partition_index", "commit_seq", "lsn", "transaction_id",
                 "origin", "timestamp", "operations", "epoch")

    partition_index: int
    commit_seq: int
    lsn: int
    transaction_id: int
    origin: str
    timestamp: float
    operations: Tuple[RecordVersion, ...]
    #: Promotion epoch that durably committed the record (0 before the
    #: membership plane's first promotion).
    epoch: int

    def __init__(self, partition_index: int, commit_seq: int, lsn: int,
                 transaction_id: int, origin: str, timestamp: float,
                 operations: Tuple[RecordVersion, ...], epoch: int = 0):
        set_field = object.__setattr__
        set_field(self, "partition_index", partition_index)
        set_field(self, "commit_seq", commit_seq)
        set_field(self, "lsn", lsn)
        set_field(self, "transaction_id", transaction_id)
        set_field(self, "origin", origin)
        set_field(self, "timestamp", timestamp)
        set_field(self, "operations", operations)
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
        return (f"<ChangeEvent p{self.partition_index} "
                f"seq={self.commit_seq} keys={list(self.keys)}>")


def replay_events(events, store) -> int:
    """Apply change events to a :class:`~repro.storage.engine.RecordStore`.

    Installs each event's operations -- the commit's own
    :class:`RecordVersion`\\ s -- exactly the way a replication apply
    would, so replaying a partition's full stream (or its suffix past any
    checkpoint) into an empty (or checkpointed) store reproduces the live
    store's state -- the property ``tests/test_cdc.py`` pins.  Returns the
    number of versions applied.
    """
    applied = 0
    for event in events:
        for version in event.operations:
            store.apply_version(version)
            applied += 1
    return applied


class ChangeStream:
    """Per-partition ordered change events folded from WAL commit hooks."""

    def __init__(self, *, retention_events: Optional[int] = None,
                 metrics=None):
        if retention_events is not None and retention_events < 1:
            raise ValueError("stream retention must be at least 1 event")
        self.retention_events = retention_events
        self.metrics = metrics
        #: Folded events per partition, in stream (fold) order -- ascending
        #: ``commit_seq`` within each promotion epoch.
        self._events: Dict[int, List[ChangeEvent]] = {}
        #: Latest folded ``commit_seq`` per partition (the checkpoint).
        self._last_seq: Dict[int, int] = {}
        #: Latest folded ``(epoch, commit_seq)`` per partition (the dedupe
        #: line; epoch-aware because a promotion restarts commit numbering).
        self._last_position: Dict[int, Tuple[int, int]] = {}
        self._taps: List[WalTap] = []
        self._consumers: List[Callable[[ChangeEvent], None]] = []
        self._paused = False
        # Plain counters mirrored into metrics when bound; tests without a
        # registry read these directly.
        self.events_folded = 0
        self.duplicates_skipped = 0
        self.gap_records_lost = 0
        self.events_evicted = 0

    # -- wiring ----------------------------------------------------------------

    def bind_metrics(self, metrics) -> None:
        self.metrics = metrics

    def tap(self, partition_index: int, copy) -> None:
        """Tap one member copy's log for the commits it made itself.

        The cursor starts at the log's current tail: the stream captures
        commits from the moment it is wired, which the deployment builder
        does before any subscriber is loaded.
        """
        self._taps.append(
            copy.tap_local_commits(partial(self._ingest, partition_index)))

    def close(self) -> None:
        """Close every tap (the stream stops folding)."""
        for tap in self._taps:
            tap.close()
        self._taps = []

    def subscribe(self, consumer: Callable[[ChangeEvent], None]) -> None:
        """Run ``consumer(event)`` synchronously for every folded event."""
        if consumer not in self._consumers:
            self._consumers.append(consumer)

    # -- folding ----------------------------------------------------------------

    def _ingest(self, partition: int, record: LogRecord) -> None:
        last = self._last_position.get(partition, (0, 0))
        if record.position <= last:
            self.duplicates_skipped += 1
            self._count("cdc.duplicates")
            return
        event = ChangeEvent(
            partition_index=partition,
            commit_seq=record.commit_seq,
            lsn=record.lsn,
            transaction_id=record.transaction_id,
            origin=record.origin,
            timestamp=record.timestamp,
            operations=record.operations,
            epoch=record.epoch,
        )
        self._last_seq[partition] = record.commit_seq
        self._last_position[partition] = record.position
        events = self._events.setdefault(partition, [])
        events.append(event)
        if self.retention_events is not None and \
                len(events) > self.retention_events:
            del events[:len(events) - self.retention_events]
            self.events_evicted += 1
            self._count("cdc.stream.evicted")
        self.events_folded += 1
        self._count("cdc.events")
        for consumer in tuple(self._consumers):
            consumer(event)

    # -- pause / resume ----------------------------------------------------------

    @property
    def paused(self) -> bool:
        return self._paused

    def pause(self) -> None:
        """Stop folding; the tap cursors freeze and pin the tapped logs."""
        self._paused = True
        for tap in self._taps:
            tap.paused = True

    def resume(self) -> None:
        """Fold everything committed while paused, in log order per tap.

        Records retention dropped before the stream saw them are counted
        in ``cdc.gaps`` (``gap_records_lost``).  The tap pin keeps this at
        zero; the counter is the safety check the property tests assert.
        """
        self._paused = False
        for tap in self._taps:
            lost = tap.resume()
            if lost:
                self.gap_records_lost += lost
                self._count("cdc.gaps", lost)

    # -- reading -------------------------------------------------------------------

    def checkpoint(self, partition_index: int) -> int:
        """The highest folded ``commit_seq`` of one partition (0 when none)."""
        return self._last_seq.get(partition_index, 0)

    def partitions(self) -> List[int]:
        return sorted(self._events)

    def events(self, partition_index: int) -> List[ChangeEvent]:
        """All retained events of one partition, ascending ``commit_seq``."""
        return list(self._events.get(partition_index, ()))

    def events_since(self, partition_index: int,
                     commit_seq: int) -> List[ChangeEvent]:
        """Retained events with ``commit_seq`` strictly greater (ascending).

        Mirrors :meth:`~repro.storage.wal.WriteAheadLog.since` index
        arithmetic where the sequence is dense, falling back to a scan when
        it is not (stream retention may drop a prefix).
        """
        events = self._events.get(partition_index)
        if not events:
            return []
        if commit_seq <= 0 or commit_seq < events[0].commit_seq:
            return list(events)
        first = events[0].commit_seq
        index = commit_seq - first + 1
        if 0 < index <= len(events) and \
                events[index - 1].commit_seq == commit_seq:
            return events[index:]
        # Fold order is stream order even across promotion epochs (where
        # commit numbering can restart): resume strictly after the *latest*
        # event carrying the cursor sequence.
        for position in range(len(events) - 1, -1, -1):
            if events[position].commit_seq == commit_seq:
                return events[position + 1:]
        return [event for event in events if event.commit_seq > commit_seq]

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.increment(name, amount)

    def __repr__(self) -> str:
        return (f"<ChangeStream taps={len(self._taps)} "
                f"events={self.events_folded} paused={self._paused}>")
