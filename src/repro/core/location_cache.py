"""Per-PoA read-through cache in front of the data-location stage.

The paper's data-location stage resolves every request's identity to the
storage element holding the subscription (O(log N) over the provisioned
maps).  On the hot path most requests resolve identities that were resolved
moments earlier, so each Point of Access keeps a small read-through cache of
``(identity type, value) -> storage element`` in front of its locator: a hit
is a single O(1) probe, a miss falls through to the locator and the answer is
remembered.

Caching a location is only safe while the location cannot silently change,
so the cache is explicitly invalidated by the lifecycle layer:

* on **fail-over** every entry pointing at the failed element is dropped;
* on **placement changes** (subscriber delete / relocation) the affected
  identities are dropped from every PoA's cache;
* on **locator sync** (a scaled-out PoA copying its maps) the PoA's cache is
  cleared and bypassed until the maps are in place.

The cache is always on; ``UDRConfig.location_cache_capacity`` bounds each
PoA's cache (LRU eviction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple


@dataclass
class LocationCacheStats:
    """Counters for one PoA's location cache."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    invalidations: int = 0

    def hit_ratio(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class PoALocationCache:
    """LRU map of ``(identity type, value) -> element name`` for one PoA."""

    def __init__(self, name: str, capacity: int = 0):
        if capacity < 0:
            raise ValueError("cache capacity cannot be negative")
        self.name = name
        self.capacity = capacity  # 0 = unbounded
        self.stats = LocationCacheStats()
        self._entries: Dict[Tuple[str, str], str] = {}

    # -- fast path -----------------------------------------------------------------

    def get(self, identity_type: str, value: str) -> Optional[str]:
        """The cached element name, or ``None`` on a miss."""
        self.stats.lookups += 1
        key = (identity_type, value)
        location = self._entries.get(key)
        if location is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if self.capacity:
            # Move to the back of the (insertion-ordered) dict: LRU refresh.
            del self._entries[key]
            self._entries[key] = location
        return location

    def store(self, identity_type: str, value: str, location: str) -> None:
        key = (identity_type, value)
        if key in self._entries:
            del self._entries[key]
        elif self.capacity and len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
            self.stats.evictions += 1
        self._entries[key] = location
        self.stats.stores += 1

    # -- invalidation --------------------------------------------------------------

    def invalidate_identity(self, identity_type: str, value: str) -> None:
        if self._entries.pop((identity_type, value), None) is not None:
            self.stats.invalidations += 1

    def invalidate_identities(self, identities: Mapping[str, str]) -> None:
        for identity_type, value in identities.items():
            self.invalidate_identity(identity_type, value)

    def invalidate_element(self, element_name: str) -> int:
        """Drop every entry pointing at ``element_name`` (fail-over)."""
        stale = [key for key, location in self._entries.items()
                 if location == element_name]
        for key in stale:
            del self._entries[key]
        self.stats.invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        self.stats.invalidations += len(self._entries)
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[str, str]) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return (f"<PoALocationCache {self.name!r} entries={len(self)} "
                f"hit_ratio={self.stats.hit_ratio():.2f}>")


class LocationCacheGroup:
    """All per-PoA caches of one deployment, with fleet-wide invalidation."""

    def __init__(self, capacity: int = 0):
        self.capacity = capacity
        self._caches: Dict[str, PoALocationCache] = {}

    def for_poa(self, poa) -> PoALocationCache:
        """The cache serving ``poa`` (created on first use)."""
        cache = self._caches.get(poa.name)
        if cache is None:
            cache = PoALocationCache(poa.name, capacity=self.capacity)
            self._caches[poa.name] = cache
        return cache

    def cache(self, poa_name: str) -> Optional[PoALocationCache]:
        return self._caches.get(poa_name)

    @property
    def caches(self) -> Dict[str, PoALocationCache]:
        return dict(self._caches)

    def invalidate_element(self, element_name: str) -> int:
        """Fail-over invalidation across every PoA; returns entries dropped."""
        return sum(cache.invalidate_element(element_name)
                   for cache in self._caches.values())

    def invalidate_identities(self, identities: Mapping[str, str]) -> None:
        """Placement-change invalidation (delete / relocation) everywhere."""
        for cache in self._caches.values():
            cache.invalidate_identities(identities)

    def clear_all(self) -> None:
        for cache in self._caches.values():
            cache.clear()

    def __len__(self) -> int:
        return len(self._caches)

    def __repr__(self) -> str:
        return f"<LocationCacheGroup caches={len(self._caches)}>"
