"""Divergence detection and conflict resolution between partition copies.

When the UDR runs multi-master during a partition (section 5), copies on the
two sides of the partition accept writes independently and their version
chains diverge.  "Once the partition incident is over, a consistency
restoration process must run across the whole UDR NF, trying to merge the
different views into one single, consistent view."

Divergence is detected from the per-key version chains: if one copy's chain
is a prefix of the other's the difference is ordinary replication lag; if the
chains fork (both sides appended versions the other has not seen) the key is
in conflict and a resolver must pick or build the surviving value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.storage.records import TOMBSTONE, RecordVersion, merge_attributes
from repro.storage.storage_element import PartitionCopy


def _chain_signature(copy: PartitionCopy, key: str) -> List[Tuple[str, int, int]]:
    """The identity of each version in a copy's chain for ``key``."""
    return [(version.origin, version.transaction_id, version.commit_seq)
            for version in copy.store.versions(key)]


def _is_prefix(shorter: List, longer: List) -> bool:
    return len(shorter) <= len(longer) and longer[:len(shorter)] == shorter


@dataclass
class KeyConflict:
    """A key whose copies hold forked (not merely lagging) histories."""

    key: str
    versions: Dict[str, RecordVersion]  # element name -> latest version

    @property
    def candidate_values(self) -> Dict[str, Any]:
        return {element: version.value
                for element, version in self.versions.items()}

    def distinct_values(self) -> List[Any]:
        seen: List[Any] = []
        for value in self.candidate_values.values():
            if value not in seen:
                seen.append(value)
        return seen

    def __repr__(self) -> str:
        return f"<KeyConflict {self.key!r} copies={sorted(self.versions)}>"


def detect_conflicts(copies: Dict[str, PartitionCopy]) -> List[KeyConflict]:
    """Find all keys whose version chains fork across the given copies.

    Parameters
    ----------
    copies:
        Mapping of element name to the partition copy it hosts.  All copies
        must belong to the same data partition.
    """
    if len(copies) < 2:
        return []
    all_keys: set = set()
    for copy in copies.values():
        all_keys.update(copy.store.versioned_keys())
    conflicts: List[KeyConflict] = []
    for key in sorted(all_keys):
        signatures = {name: _chain_signature(copy, key)
                      for name, copy in copies.items()}
        non_empty = {name: sig for name, sig in signatures.items() if sig}
        if len(non_empty) < 2:
            continue
        names = sorted(non_empty)
        forked = False
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                a, b = non_empty[first], non_empty[second]
                if not (_is_prefix(a, b) or _is_prefix(b, a)):
                    forked = True
                    break
            if forked:
                break
        if not forked:
            continue
        latest = {}
        for name in names:
            version = copies[name].store.latest(key)
            if version is not None:
                latest[name] = version
        values = {repr(v.value) for v in latest.values()}
        if len(values) > 1:
            conflicts.append(KeyConflict(key=key, versions=latest))
    return conflicts


class ConflictResolver:
    """Strategy interface: pick the surviving value for a conflicted key."""

    name = "abstract"

    def resolve(self, conflict: KeyConflict) -> Any:
        raise NotImplementedError


class LastWriterWinsResolver(ConflictResolver):
    """Keep the version with the highest commit sequence (ties by origin name).

    This is the cheap, lossy policy: one side's update silently disappears,
    which is exactly the consistency price the paper warns service providers
    about when they ask for availability on partitions.
    """

    name = "last-writer-wins"

    def resolve(self, conflict: KeyConflict) -> Any:
        best = max(conflict.versions.values(),
                   key=lambda version: (version.commit_seq, version.origin))
        return best.value


class PreferOriginResolver(ConflictResolver):
    """Keep whatever the designated element (usually the old master) has."""

    name = "prefer-origin"

    def __init__(self, preferred_element: str,
                 fallback: Optional[ConflictResolver] = None):
        self.preferred_element = preferred_element
        self.fallback = fallback or LastWriterWinsResolver()

    def resolve(self, conflict: KeyConflict) -> Any:
        if self.preferred_element in conflict.versions:
            return conflict.versions[self.preferred_element].value
        return self.fallback.resolve(conflict)


class AttributeMergeResolver(ConflictResolver):
    """Merge attribute maps field by field; overlapping fields use a tiebreak.

    Subscriber profiles are attribute maps, so updates touching *different*
    attributes (say, a barring flag on one side and a forwarding number on
    the other) can both survive.  Only attributes written on both sides need
    the tiebreak resolver.
    """

    name = "attribute-merge"

    def __init__(self, tiebreak: Optional[ConflictResolver] = None):
        self.tiebreak = tiebreak or LastWriterWinsResolver()

    def resolve(self, conflict: KeyConflict) -> Any:
        versions = list(conflict.versions.values())
        non_maps = [v for v in versions
                    if not isinstance(v.value, dict) and v.value is not TOMBSTONE]
        if non_maps:
            return self.tiebreak.resolve(conflict)
        ordered = sorted(versions, key=lambda v: (v.commit_seq, v.origin))
        merged: Dict[str, Any] = {}
        for version in ordered:
            if version.value is TOMBSTONE:
                continue
            merged = merge_attributes(merged, version.value)
        if not merged:
            return self.tiebreak.resolve(conflict)
        return merged
