"""A single identity -> location map with O(log N) lookups.

The paper's data location stage is state-full: it stores identity-location
tuples (e.g. MSISDN -> storage element address) and its "processing cost
typically grows as O(log N), being N the number of subscribers in the UDR
NF".  The map is implemented over a sorted key array with binary search and
*counts the comparisons it performs*, so experiment E10 can plot the measured
lookup cost against the subscriber count and check the O(log N) claim
directly rather than by wall-clock proxy.
"""

from __future__ import annotations

import bisect
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.directory.errors import UnknownIdentity


class IdentityLocationMap:
    """Sorted map from one identity namespace to storage locations."""

    def __init__(self, identity_type: str):
        self.identity_type = identity_type
        self._keys: List[str] = []
        self._locations: Dict[str, str] = {}
        self.lookups = 0
        self.comparisons = 0

    # -- mutation -----------------------------------------------------------------

    def insert(self, identity: str, location: str) -> None:
        """Add or update the location of ``identity``."""
        if identity not in self._locations:
            index = bisect.bisect_left(self._keys, identity)
            self._keys.insert(index, identity)
        self._locations[identity] = location

    def remove(self, identity: str) -> None:
        if identity not in self._locations:
            raise UnknownIdentity(self.identity_type, identity)
        del self._locations[identity]
        index = bisect.bisect_left(self._keys, identity)
        if index < len(self._keys) and self._keys[index] == identity:
            del self._keys[index]

    def bulk_load(self, entries: Iterable[Tuple[str, str]]) -> None:
        """Load many entries at once (initial sync of a new location stage,
        or one call's worth of a subscriber-base load).

        ``dict.update`` consumes the pairs in C instead of a per-entry
        Python loop.  The identities it added are the dict's tail, in
        insertion order; appended to the sorted keys, they sort in
        O(M log M) for M new keys and merge with the N old ones in O(N).
        This is the hot path of locator synchronisation, of loading and of
        the E10 population build.
        """
        known = len(self._locations)
        self._locations.update(entries)
        if len(self._locations) > known:
            self._keys.extend(islice(self._locations, known, None))
            self._keys.sort()

    # -- lookup ---------------------------------------------------------------------

    def locate(self, identity: str) -> str:
        """Return the location of ``identity``; O(log N) with counted cost."""
        self.lookups += 1
        self.comparisons += self._binary_search_cost(identity)
        try:
            return self._locations[identity]
        except KeyError:
            raise UnknownIdentity(self.identity_type, identity) from None

    def _binary_search_cost(self, identity: str) -> int:
        """Number of key comparisons a binary search for ``identity`` makes."""
        low, high, steps = 0, len(self._keys), 0
        while low < high:
            steps += 1
            middle = (low + high) // 2
            if self._keys[middle] < identity:
                low = middle + 1
            else:
                high = middle
        return max(steps, 1)

    def contains(self, identity: str) -> bool:
        return identity in self._locations

    def get(self, identity: str, default: Optional[str] = None) -> Optional[str]:
        return self._locations.get(identity, default)

    # -- bulk access -------------------------------------------------------------------

    def entries(self) -> Iterator[Tuple[str, str]]:
        for key in self._keys:
            yield key, self._locations[key]

    def average_lookup_cost(self) -> float:
        """Mean comparisons per lookup since creation (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.comparisons / self.lookups

    def reset_counters(self) -> None:
        self.lookups = 0
        self.comparisons = 0

    def __len__(self) -> int:
        return len(self._locations)

    def __contains__(self, identity: str) -> bool:
        return identity in self._locations

    def __repr__(self) -> str:
        return (f"<IdentityLocationMap {self.identity_type} "
                f"entries={len(self._locations)}>")
