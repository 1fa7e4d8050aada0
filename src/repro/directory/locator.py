"""Locator strategies: provisioned maps, cached maps, consistent hashing.

Section 3.5 discusses a subtle trade-off in the F-R-S triangle: if the
identity-location maps are **provisioned** (the paper's assumption) a new
data-location stage must copy all entries from a peer before it can serve,
hurting availability on scale-out; if the maps are **cached and built on the
fly** availability is unaffected but "every cache miss implies locating the
subscriber data by querying multiple or even all the SE in the system".  The
consistent-hash alternative avoids both costs but cannot support selective
placement and needs one data replica per identity namespace.

All three are implemented behind one interface so the UDR core can swap them
by configuration and the experiments can compare the consequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.directory.consistent_hash import ConsistentHashRing
from repro.directory.errors import LocatorSyncInProgress, UnknownIdentity
from repro.directory.indexes import IdentityType, MultiIndexDirectory


@dataclass
class LocatorStats:
    """Counters shared by every locator implementation."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    broadcasts: int = 0
    elements_queried_on_miss: int = 0
    registrations: int = 0

    def hit_ratio(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class Locator:
    """Interface of a data-location stage instance at one Point of Access."""

    name = "abstract"
    supports_selective_placement = True

    def __init__(self):
        self.stats = LocatorStats()

    def locate(self, identity_type: str, value: str) -> str:
        """Return the storage element holding the subscription's data."""
        raise NotImplementedError

    def register(self, identities: Mapping[str, str], location: str) -> None:
        """Record a (new) subscription's location."""
        raise NotImplementedError

    def register_many(self, entries: Sequence[Tuple[str, str, str]],
                      subscriptions: int) -> None:
        """Record ``subscriptions`` subscriptions' locations at once, as
        ``(identity_type, value, location)`` entries in registration order
        (loading a subscriber base); the same as :meth:`register` per
        subscription."""
        raise NotImplementedError

    def deregister(self, identities: Mapping[str, str]) -> None:
        raise NotImplementedError


class ProvisionedLocator(Locator):
    """The paper's choice: identity-location maps written at provisioning time."""

    name = "provisioned"
    supports_selective_placement = True

    def __init__(self, identity_types=None):
        super().__init__()
        self.directory = MultiIndexDirectory(identity_types)
        self._syncing = False
        self._sync_remaining = 0

    # -- sync state (scale-out) ----------------------------------------------------

    @property
    def syncing(self) -> bool:
        return self._syncing

    def begin_sync(self, total_entries: int) -> None:
        """The new PoA starts copying maps from a peer; it cannot serve yet."""
        self._syncing = True
        self._sync_remaining = total_entries

    def sync_progress(self, entries_loaded: int) -> None:
        self._sync_remaining = max(0, self._sync_remaining - entries_loaded)

    def complete_sync(self) -> None:
        self._syncing = False
        self._sync_remaining = 0

    # -- Locator interface ------------------------------------------------------------

    def locate(self, identity_type: str, value: str) -> str:
        if self._syncing:
            raise LocatorSyncInProgress(self._sync_remaining)
        self.stats.lookups += 1
        try:
            location = self.directory.resolve(identity_type, value)
        except UnknownIdentity:
            self.stats.misses += 1
            raise
        self.stats.hits += 1
        return location

    def register(self, identities: Mapping[str, str], location: str) -> None:
        self.stats.registrations += 1
        self.directory.register(identities, location)

    def register_many(self, entries: Sequence[Tuple[str, str, str]],
                      subscriptions: int) -> None:
        self.stats.registrations += subscriptions
        self.directory.bulk_load(entries)

    def deregister(self, identities: Mapping[str, str]) -> None:
        self.directory.deregister(identities)

    def export_entries(self) -> List:
        """All entries, for synchronising a newly deployed peer instance."""
        return self.directory.all_entries()

    def import_entries(self, entries) -> None:
        self.directory.bulk_load(entries)

    def __repr__(self) -> str:
        return (f"<ProvisionedLocator entries={self.directory.total_entries()} "
                f"syncing={self._syncing}>")


class CachedLocator(Locator):
    """Maps built on the fly; a miss queries the storage elements directly.

    ``authority`` is a callable ``(identity_type, value) -> element name or
    None`` provided by the UDR deployment: it searches the primary copies of
    all storage elements, which is exactly the "querying multiple or even all
    the SE in the system" cost the paper warns about.  ``fanout`` reports how
    many elements such a broadcast touches, so experiments can charge it.
    """

    name = "cached"
    supports_selective_placement = True

    def __init__(self, authority: Callable[[str, str], Optional[str]],
                 fanout: int = 1, identity_types=None):
        super().__init__()
        if fanout < 1:
            raise ValueError("fanout must be at least 1")
        self.authority = authority
        self.fanout = fanout
        self.cache = MultiIndexDirectory(identity_types)

    def locate(self, identity_type: str, value: str) -> str:
        self.stats.lookups += 1
        if self.cache.contains(identity_type, value):
            self.stats.hits += 1
            return self.cache.resolve(identity_type, value)
        self.stats.misses += 1
        self.stats.broadcasts += 1
        self.stats.elements_queried_on_miss += self.fanout
        location = self.authority(identity_type, value)
        if location is None:
            raise UnknownIdentity(identity_type, value)
        self.cache.register({identity_type: value}, location)
        return location

    def register(self, identities: Mapping[str, str], location: str) -> None:
        # Nothing to provision: the cache warms itself.  Pre-warming on
        # registration is still worthwhile for the local PoA.
        self.stats.registrations += 1
        self.cache.register(identities, location)

    def register_many(self, entries: Sequence[Tuple[str, str, str]],
                      subscriptions: int) -> None:
        self.stats.registrations += subscriptions
        self.cache.bulk_load(entries)

    def deregister(self, identities: Mapping[str, str]) -> None:
        self.cache.deregister(identities)

    def invalidate(self, identities: Mapping[str, str]) -> None:
        """Drop cached entries (after a relocation)."""
        self.cache.deregister(identities)

    def __repr__(self) -> str:
        return (f"<CachedLocator entries={self.cache.total_entries()} "
                f"hit_ratio={self.stats.hit_ratio():.2f}>")


class ConsistentHashLocator(Locator):
    """O(1)-style location by hashing, the paper's discarded alternative.

    Placement is implied by the hash of each identity, so the same
    subscription's data would have to be replicated once per identity
    namespace (``storage_overhead_factor``) and cannot be pinned to a chosen
    element (``supports_selective_placement`` is False).
    """

    name = "consistent-hash"
    supports_selective_placement = False

    def __init__(self, element_names, identity_types=None, virtual_nodes: int = 64):
        super().__init__()
        self.identity_types = list(identity_types or IdentityType.ALL)
        self.ring = ConsistentHashRing(element_names, virtual_nodes=virtual_nodes)

    @property
    def storage_overhead_factor(self) -> int:
        """Data copies required so every identity namespace can be hashed."""
        return len(self.identity_types)

    def locate(self, identity_type: str, value: str) -> str:
        self.stats.lookups += 1
        self.stats.hits += 1
        return self.ring.locate(f"{identity_type}:{value}")

    def placement_for(self, identities: Mapping[str, str]) -> Dict[str, str]:
        """Element each identity namespace hashes to (they usually differ)."""
        return {identity_type: self.ring.locate(f"{identity_type}:{value}")
                for identity_type, value in identities.items()}

    def register(self, identities: Mapping[str, str], location: str) -> None:
        # Hashing dictates placement; an explicit location cannot be honoured.
        self.stats.registrations += 1

    def register_many(self, entries: Sequence[Tuple[str, str, str]],
                      subscriptions: int) -> None:
        self.stats.registrations += subscriptions

    def deregister(self, identities: Mapping[str, str]) -> None:
        return None

    def __repr__(self) -> str:
        return (f"<ConsistentHashLocator elements={len(self.ring)} "
                f"overhead_factor={self.storage_overhead_factor}>")
