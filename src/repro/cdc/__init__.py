"""Change-data-capture plane: WAL-tap stream, audit history, reconciliation.

The CDC plane taps the commit logs the replication mux already wakes on
(:meth:`repro.storage.wal.WriteAheadLog.tap`) and turns them into an
ordered, idempotent-by-commit-seq change stream per data partition:

* :class:`~repro.cdc.stream.ChangeStream` -- folds every member copy's
  own commits (so each logical commit appears exactly once, across
  fail-over included) into per-partition event sequences; while paused,
  its taps pin WAL retention;
* :class:`~repro.cdc.history.HistoryStore` -- per-record audit history
  (who/what/when for every subscriber mutation), retained past
  ``wal_retention`` and queryable through ``Session.history``;
* :class:`~repro.cdc.reconcile.Reconciler` -- an online consumer that
  periodically diffs master vs replica vs locator state with merkle-style
  partition digests and repairs drift in place, counting
  ``reconciliation.detected`` / ``.repaired`` / ``.false_positive``.
"""

from repro.cdc.digest import StoreDigest, bucket_of, digest_store
from repro.cdc.history import HistoryEntry, HistoryStore, IDENTITY_ATTRIBUTES
from repro.cdc.reconcile import Reconciler, RepairAction
from repro.cdc.stream import ChangeEvent, ChangeStream, replay_events

__all__ = [
    "ChangeEvent",
    "ChangeStream",
    "HistoryEntry",
    "HistoryStore",
    "IDENTITY_ATTRIBUTES",
    "Reconciler",
    "RepairAction",
    "StoreDigest",
    "bucket_of",
    "digest_store",
    "replay_events",
]
