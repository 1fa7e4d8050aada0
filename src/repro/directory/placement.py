"""Placement policies: which storage element gets a new subscription.

Section 3.5 of the paper: "the UDR might allow the PS to specify in what SE
it wants data of a subscription to be placed, i.e. selective location.  This
is useful in telecom networks since it is known that users stay within the
home region of the subscription most of the time" -- placing data near its
home region keeps application front-end traffic off the backbone and is the
lever that moves the H-R trade-off point.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class PlacementCandidate:
    """A storage element a placement policy may choose.

    ``region`` is the name of the region its site belongs to; ``has_capacity``
    lets the policy skip full elements.
    """

    def __init__(self, element_name: str, region: str, has_capacity: bool = True):
        self.element_name = element_name
        self.region = region
        self.has_capacity = has_capacity

    def __repr__(self) -> str:
        return (f"PlacementCandidate({self.element_name!r}, {self.region!r}, "
                f"has_capacity={self.has_capacity})")


class PlacementPolicy:
    """Strategy interface for choosing where a subscription's data lives."""

    name = "abstract"
    supports_selective_placement = True

    def choose(self, subscriber, candidates: Sequence[PlacementCandidate]) -> str:
        """Return the chosen element name.

        ``subscriber`` exposes at least ``home_region`` and ``key``
        attributes (duck-typed; the subscriber package provides them).
        """
        raise NotImplementedError

    @staticmethod
    def _usable(candidates: Sequence[PlacementCandidate]) -> List[PlacementCandidate]:
        usable = [c for c in candidates if c.has_capacity]
        if not usable:
            raise ValueError("no storage element has capacity left")
        return usable


class RandomPlacement(PlacementPolicy):
    """Uniform random placement -- the baseline 'just shard it' strategy."""

    name = "random"
    supports_selective_placement = False

    def __init__(self, rng):
        self.rng = rng

    def choose(self, subscriber, candidates: Sequence[PlacementCandidate]) -> str:
        usable = self._usable(candidates)
        return self.rng.choice(usable).element_name


class RoundRobinPlacement(PlacementPolicy):
    """Deterministic round-robin placement (even fill, no locality)."""

    name = "round-robin"
    supports_selective_placement = False

    def __init__(self):
        self._next = 0

    def choose(self, subscriber, candidates: Sequence[PlacementCandidate]) -> str:
        usable = self._usable(candidates)
        choice = usable[self._next % len(usable)]
        self._next += 1
        return choice.element_name


class HomeRegionPlacement(PlacementPolicy):
    """Selective placement: keep a subscription's data in its home region."""

    name = "home-region"
    supports_selective_placement = True

    def __init__(self, fallback: Optional[PlacementPolicy] = None):
        self.fallback = fallback or RoundRobinPlacement()
        self.local_placements = 0
        self.fallback_placements = 0

    def choose(self, subscriber, candidates: Sequence[PlacementCandidate]) -> str:
        usable = self._usable(candidates)
        home_region = getattr(subscriber, "home_region", None)
        local = [c for c in usable if c.region == home_region]
        if local:
            self.local_placements += 1
            # Spread within the region deterministically by subscriber key.
            key = getattr(subscriber, "key", "")
            return local[hash_index(key, len(local))].element_name
        self.fallback_placements += 1
        return self.fallback.choose(subscriber, usable)


def hash_index(key: str, modulus: int) -> int:
    """Stable index derivation used to spread placements within a region."""
    import hashlib
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    digest = hashlib.md5(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % modulus
