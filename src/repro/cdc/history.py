"""Per-record audit history fed by the change stream.

ADSJournalsDB pairs every table with a ``*History`` table because
provisioning systems need an audit trail; this module is the equivalent for
the subscriber store.  The :class:`HistoryStore` consumes
:class:`~repro.cdc.stream.ChangeEvent`\\ s and keeps, per record key, the
list of :class:`HistoryEntry` -- **who** (the originating copy), **when**
(the commit's virtual timestamp), and **what** (the attribute-level diff
against the previous version) for every mutation.  A version merged from a
one-attribute change map onto exactly the value the trail last saw for its
key diffs only that attribute; every other version is diffed in full.

History is retained independently of ``wal_retention``: the mux may
truncate a master log down to its retention bound while the history keeps
the full (or per-record-capped) mutation trail, which is what makes
``Session.history`` answer past the log horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.cdc.stream import ChangeEvent
from repro.storage.records import TOMBSTONE, reduce_slotted

#: Record attributes that name a subscriber identity.  Mirrors
#: ``repro.api.operations.IDENTITY_TYPES`` (asserted equal by the CDC test
#: suite); duplicated here so the storage-adjacent CDC plane does not import
#: the API layer.
IDENTITY_ATTRIBUTES: Tuple[str, ...] = ("imsi", "msisdn", "impu", "impi")


@dataclass(frozen=True, init=False)
class HistoryEntry:
    """One audited mutation of one record.

    ``changes`` is the attribute-level diff against the previous version
    (``None``-valued attributes were removed); for deletes it is ``None``.
    Slotted like :class:`~repro.storage.records.RecordVersion` (see there
    for why not ``slots=True``): the trail keeps one entry per mutation.
    """

    __slots__ = ("key", "commit_seq", "transaction_id", "origin",
                 "timestamp", "kind", "changes")

    key: str
    commit_seq: int
    transaction_id: int
    origin: str
    timestamp: float
    kind: str  # "create" | "modify" | "delete"
    changes: Optional[Dict[str, Any]]

    def __init__(self, key: str, commit_seq: int, transaction_id: int,
                 origin: str, timestamp: float, kind: str,
                 changes: Optional[Dict[str, Any]]):
        set_field = object.__setattr__
        set_field(self, "key", key)
        set_field(self, "commit_seq", commit_seq)
        set_field(self, "transaction_id", transaction_id)
        set_field(self, "origin", origin)
        set_field(self, "timestamp", timestamp)
        set_field(self, "kind", kind)
        set_field(self, "changes", changes)

    def __reduce__(self):
        return reduce_slotted(self)

    def __repr__(self) -> str:
        return (f"<HistoryEntry {self.key!r} seq={self.commit_seq} "
                f"{self.kind} by={self.origin!r} at={self.timestamp}>")


def _diff_changed(before: Mapping, after: Mapping,
                  attribute: str) -> Dict[str, Any]:
    """:func:`_diff` of two maps that differ at most in ``attribute``."""
    if attribute in after:
        value = after[attribute]
        if attribute not in before or before[attribute] != value:
            return {attribute: value}
    elif attribute in before:
        return {attribute: None}
    return {}


def _diff(before: Optional[Mapping], after: Any) -> Optional[Dict[str, Any]]:
    """Attribute diff of two record values (``None`` marks removals)."""
    if not isinstance(after, Mapping):
        return None if after is TOMBSTONE else {"value": after}
    previous = before if isinstance(before, Mapping) else {}
    changes: Dict[str, Any] = {}
    for attribute, value in after.items():
        if attribute not in previous or previous[attribute] != value:
            changes[attribute] = value
    for attribute in previous:
        if attribute not in after:
            changes[attribute] = None
    return changes


class HistoryStore:
    """Audit trail of every subscriber mutation, keyed by record key."""

    def __init__(self, stream=None, *,
                 max_entries_per_record: Optional[int] = None,
                 metrics=None):
        if max_entries_per_record is not None and max_entries_per_record < 1:
            raise ValueError("history cap must be at least 1 entry")
        self.max_entries_per_record = max_entries_per_record
        self.metrics = metrics
        self._entries: Dict[str, List[HistoryEntry]] = {}
        #: Latest known value per key (the diff base).
        self._latest: Dict[str, Any] = {}
        #: ``(identity attribute, value) -> record key``.
        self._identity_index: Dict[Tuple[str, str], str] = {}
        self.entries_recorded = 0
        self.entries_evicted = 0
        if stream is not None:
            stream.subscribe(self.apply_event)

    def bind_metrics(self, metrics) -> None:
        self.metrics = metrics

    # -- folding ----------------------------------------------------------------

    def apply_event(self, event: ChangeEvent) -> None:
        """Fold one change event into the audit trail (stream consumer)."""
        for version in event.operations:
            key = version.key
            before = self._latest.get(key)
            value = version.value
            if value is TOMBSTONE:
                kind = "delete"
            elif before is None or before is TOMBSTONE:
                kind = "create"
            else:
                kind = "modify"
            changed = version.changed
            if changed is not None and len(changed) == 1 and \
                    before is version.base:
                changes = _diff_changed(before, value, changed[0])
            else:
                changes = _diff(before, value)
            entry = HistoryEntry(key, event.commit_seq, event.transaction_id,
                                 event.origin, event.timestamp, kind,
                                 changes)
            entries = self._entries.setdefault(key, [])
            entries.append(entry)
            if self.max_entries_per_record is not None and \
                    len(entries) > self.max_entries_per_record:
                del entries[:len(entries) - self.max_entries_per_record]
                self.entries_evicted += 1
                self._count("cdc.history.evicted")
            self._latest[key] = value
            if isinstance(value, Mapping):
                for attribute in IDENTITY_ATTRIBUTES:
                    identity = value.get(attribute)
                    if identity is not None:
                        self._identity_index[(attribute, str(identity))] = \
                            key
            self.entries_recorded += 1
            self._count("cdc.history.entries")

    # -- queries -----------------------------------------------------------------

    def history(self, key: str) -> List[HistoryEntry]:
        """The audited mutations of one record, oldest first."""
        return list(self._entries.get(key, ()))

    def resolve(self, identity_type: str, value: str) -> Optional[str]:
        """The record key an identity maps to, or ``None`` when unknown."""
        return self._identity_index.get((identity_type, str(value)))

    def history_of_identity(self, identity_type: str,
                            value: str) -> List[HistoryEntry]:
        key = self.resolve(identity_type, value)
        return self.history(key) if key is not None else []

    def latest_value(self, key: str) -> Any:
        """The newest value the trail has seen for ``key`` (may be
        :data:`~repro.storage.records.TOMBSTONE`)."""
        return self._latest.get(key)

    def keys(self) -> List[str]:
        return sorted(self._entries)

    def identity_entries(self):
        """Live ``((identity_type, value), record key)`` pairs -- the
        reconciler's locator sweep walks these."""
        return self._identity_index.items()

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.increment(name, amount)

    def __repr__(self) -> str:
        return (f"<HistoryStore records={len(self._entries)} "
                f"entries={self.entries_recorded}>")
