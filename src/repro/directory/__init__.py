"""Data location stage: mapping subscriber identities to storage locations.

Section 3.3.1 of the paper: "Every point of access to the UDR is capable of
resolving data location locally to the PoA".  The location stage is stateful
because the UDR must support **multiple indexes** (one per subscriber
identity: MSISDN, IMSI, IMPU, ...) and **selective placement** (pinning a
subscription's data to a chosen storage element for regulatory or locality
reasons), which rules out plain hashing.  Its lookup cost therefore grows as
O(log N) instead of O(1) (the paper's H-F "weak link"), and keeping its
identity-location maps synchronised across Points of Access is what slows
down scale-out (the F-R-S triangle of section 3.5).

This package implements the paper's chosen design and both alternatives it
discusses so they can be compared experimentally:

* :class:`ProvisionedLocator` -- maps provisioned together with the
  subscription (the paper's choice).
* :class:`CachedLocator` -- maps built on the fly; cache misses fan out to
  every storage element.
* :class:`ConsistentHashLocator` -- O(1) hashing, at the price of replicating
  placement per identity and giving up selective placement.
"""

from repro.directory.errors import LocatorSyncInProgress, UnknownIdentity
from repro.directory.identity_map import IdentityLocationMap
from repro.directory.indexes import (
    AttributeIndex,
    AttributeIndexSet,
    IdentityType,
    MultiIndexDirectory,
)
from repro.directory.dit import DirectoryCatalog, DITIndex
from repro.directory.consistent_hash import ConsistentHashRing
from repro.directory.placement import (
    HomeRegionPlacement,
    PlacementPolicy,
    RandomPlacement,
    RoundRobinPlacement,
)
from repro.directory.locator import (
    CachedLocator,
    ConsistentHashLocator,
    Locator,
    LocatorStats,
    ProvisionedLocator,
)
from repro.directory.sync import MapSyncEstimate, MapSynchroniser

__all__ = [
    "AttributeIndex",
    "AttributeIndexSet",
    "CachedLocator",
    "ConsistentHashLocator",
    "ConsistentHashRing",
    "DITIndex",
    "DirectoryCatalog",
    "HomeRegionPlacement",
    "IdentityLocationMap",
    "IdentityType",
    "Locator",
    "LocatorStats",
    "LocatorSyncInProgress",
    "MapSyncEstimate",
    "MapSynchroniser",
    "MultiIndexDirectory",
    "PlacementPolicy",
    "ProvisionedLocator",
    "RandomPlacement",
    "RoundRobinPlacement",
    "UnknownIdentity",
]
