"""The in-RAM multi-version record store backing a partition copy.

Every committed write creates a new :class:`~repro.storage.records.RecordVersion`
tagged with the commit sequence number; the version chain supports committed
reads, snapshot reads, staleness measurement (how many versions behind a
slave copy is) and multi-master conflict detection (divergent chains).

Only the *latest* version of each record counts towards RAM usage: old
versions exist for analysis and would be garbage-collected by a real engine.

The accounting is incremental: the store keeps the size of every key's
latest live version, so the live-record count is the size map's length.
A version carries its own size, computed once when the commit built it
(:attr:`RecordVersion.size`), and every copy the version is installed on
reads that number instead of re-sizing the record.  Only this class's
methods may change a version chain; anything else would bypass the
accounting.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.storage.errors import RecordNotFound
from repro.storage.records import TOMBSTONE, RecordVersion, record_size


class RecordStore:
    """MVCC key -> versioned record store for one partition copy."""

    def __init__(self, name: str = "store"):
        self.name = name
        self._versions: Dict[str, List[RecordVersion]] = {}
        #: Size of the latest version of every live key (tombstoned keys
        #: are absent), so ``len(self)`` is ``len(self._latest_sizes)``.
        self._latest_sizes: Dict[str, int] = {}
        self._dirty: Dict[str, Dict[int, Any]] = {}
        self._live_bytes = 0
        self._last_applied_seq = 0
        self._last_applied_epoch = 0

    # -- committed state --------------------------------------------------------

    @property
    def last_applied_seq(self) -> int:
        """Highest commit sequence number applied to this copy."""
        return self._last_applied_seq

    @property
    def last_applied_position(self) -> tuple:
        """Recency watermark ordered across promotion epochs."""
        return (self._last_applied_epoch, self._last_applied_seq)

    def apply_version(self, version: RecordVersion) -> None:
        """Install a committed version (from a local commit or replication)."""
        key = version.key
        self._versions.setdefault(key, []).append(version)
        # The watermark orders across promotion epochs: a new master's
        # commit numbering can overlap the deposed master's unshipped tail,
        # so (epoch, seq) -- not seq alone -- defines recency.
        if version.position > self.last_applied_position:
            self._last_applied_epoch = version.epoch
            self._last_applied_seq = version.commit_seq
        # RAM accounting: replace the previous latest version's footprint.
        sizes = self._latest_sizes
        size = version.size
        if size is None:  # a tombstone
            self._live_bytes -= sizes.pop(key, 0)
        else:
            self._live_bytes += size - sizes.get(key, 0)
            sizes[key] = size

    def replace_latest(self, key: str, value: Any) -> bool:
        """Overwrite the value of ``key``'s latest live version in place.

        Same chain slot, no new chain entry, watermark untouched (what
        silent corruption does to a copy); the RAM accounting follows the
        new value.  The slot gets a new version: the old one may be shared
        with other copies and with the commit log, so it is never mutated.
        Returns False, changing nothing, when ``key`` has no live record or
        ``value`` is a tombstone.
        """
        previous = self._latest_sizes.get(key)
        if previous is None or value is TOMBSTONE:
            return False
        chain = self._versions[key]
        latest = chain[-1]
        size = record_size(value)
        chain[-1] = RecordVersion(
            key=key, value=value, commit_seq=latest.commit_seq,
            transaction_id=latest.transaction_id, origin=latest.origin,
            epoch=latest.epoch, size=size)
        self._live_bytes += size - previous
        self._latest_sizes[key] = size
        return True

    def latest_size(self, key: str) -> Optional[int]:
        """Size of ``key``'s latest live version (``None`` when not live)."""
        return self._latest_sizes.get(key)

    def latest(self, key: str) -> Optional[RecordVersion]:
        """Latest committed version of ``key`` (may be a tombstone), or None."""
        chain = self._versions.get(key)
        return chain[-1] if chain else None

    def read_committed(self, key: str) -> Any:
        """Value of the latest committed, non-deleted version of ``key``."""
        version = self.latest(key)
        if version is None or version.is_delete:
            raise RecordNotFound(key)
        return version.value

    def get(self, key: str, default: Any = None) -> Any:
        """Like :meth:`read_committed` but returning ``default`` when absent."""
        version = self.latest(key)
        if version is None or version.is_delete:
            return default
        return version.value

    def as_of(self, key: str, commit_seq: int) -> Any:
        """Value of ``key`` as of a commit sequence number (snapshot read)."""
        chain = self._versions.get(key, [])
        chosen = None
        for version in chain:
            if version.commit_seq <= commit_seq:
                chosen = version
            else:
                break
        if chosen is None or chosen.is_delete:
            raise RecordNotFound(key)
        return chosen.value

    def versions(self, key: str) -> List[RecordVersion]:
        """Full committed version chain of ``key`` (oldest first)."""
        return list(self._versions.get(key, []))

    def contains(self, key: str) -> bool:
        return key in self._latest_sizes

    def keys(self) -> Iterable[str]:
        """Keys with a live (non-deleted) committed record."""
        for key, chain in self._versions.items():
            if chain and not chain[-1].is_delete:
                yield key

    def versioned_keys(self) -> Iterable[str]:
        """Every key with a version chain, tombstoned keys included."""
        return self._versions.keys()

    def __len__(self) -> int:
        return len(self._latest_sizes)

    @property
    def live_bytes(self) -> int:
        """Approximate RAM used by the latest versions of live records."""
        return self._live_bytes

    # -- uncommitted (dirty) state ----------------------------------------------

    def register_dirty(self, transaction_id: int, key: str, value: Any) -> None:
        """Expose an uncommitted write (READ_UNCOMMITTED visibility)."""
        self._dirty.setdefault(key, {})[transaction_id] = value

    def clear_dirty(self, transaction_id: int, keys: Iterable[str]) -> None:
        for key in keys:
            writers = self._dirty.get(key)
            if not writers:
                continue
            writers.pop(transaction_id, None)
            if not writers:
                del self._dirty[key]

    def dirty_value(self, key: str) -> Optional[Any]:
        """Most recently registered uncommitted value for ``key``, if any."""
        writers = self._dirty.get(key)
        if not writers:
            return None
        # Later registrations win; dict preserves insertion order.
        return list(writers.values())[-1]

    # -- snapshots (checkpoint / recovery) ---------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Copy of the committed live state, used by checkpointing."""
        return {key: self.read_committed(key) for key in self.keys()}

    def restore(self, snapshot: Dict[str, Any], commit_seq: int) -> None:
        """Replace the whole store with a checkpoint image (crash recovery).

        All version history and dirty state is discarded; the restored
        records carry the checkpoint's ``commit_seq``.
        """
        self._versions.clear()
        self._latest_sizes.clear()
        self._dirty.clear()
        self._live_bytes = 0
        self._last_applied_seq = 0
        self._last_applied_epoch = 0
        for key, value in snapshot.items():
            self.apply_version(RecordVersion(
                key=key, value=value, commit_seq=commit_seq,
                transaction_id=0, origin=f"{self.name}:restore"))
        self._last_applied_seq = commit_seq

    # -- introspection -------------------------------------------------------------

    def estimated_average_record_size(self) -> float:
        """Mean live record size in bytes (0.0 when empty)."""
        count = len(self)
        if count == 0:
            return 0.0
        return self._live_bytes / count

    def __repr__(self) -> str:
        return (f"<RecordStore {self.name!r} records={len(self)} "
                f"bytes={self._live_bytes}>")


def staleness(master: RecordStore, slave: RecordStore) -> int:
    """How many commits the slave copy lags behind the master copy."""
    return max(0, master.last_applied_seq - slave.last_applied_seq)
