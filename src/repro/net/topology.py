"""Regions and sites of a multi-national telecom operator.

Figure 1 of the paper shows the traditional building practice: a service
provider covering several countries (here *regions*), each country containing
a small number of data-centre *sites*.  In the UDC architecture (figure 2)
every site may host a Point of Access (PoA), LDAP servers and storage
elements, all inter-connected through the multi-national IP backbone.

The topology object is purely structural: who exists and where.  Delays,
losses and partitions live in :class:`repro.net.network.Network`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True, eq=False)
class Region:
    """A geographic region (typically a country) of the operator's footprint.

    Equal by name.  Regions are compared and hashed on every reachability
    test and Site-keyed lookup, so equality tries identity first and the
    hash is computed once, at construction.
    """

    name: str
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Region:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class Site:
    """A data-centre site inside a region.

    Sites are the unit of reachability: a network partition separates groups
    of sites, and a disaster destroys one site.  Equal by name and region,
    with the same identity-first equality and cached hash as
    :class:`Region`.
    """

    name: str
    region: Region
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name, self.region)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Site:
            return NotImplemented
        return self.name == other.name and self.region == other.region

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.region.name}/{self.name}"


class NetworkTopology:
    """The set of regions and sites, with lookup helpers."""

    def __init__(self):
        self._regions: Dict[str, Region] = {}
        self._sites: Dict[str, Site] = {}
        self._sites_by_region: Dict[str, List[Site]] = {}

    # -- construction --------------------------------------------------------

    def add_region(self, name: str) -> Region:
        """Add (or return the existing) region called ``name``."""
        if name in self._regions:
            return self._regions[name]
        region = Region(name)
        self._regions[name] = region
        self._sites_by_region[name] = []
        return region

    def add_site(self, name: str, region_name: str) -> Site:
        """Add a site to a region (creating the region if necessary)."""
        if name in self._sites:
            existing = self._sites[name]
            if existing.region.name != region_name:
                raise ValueError(
                    f"site {name!r} already exists in region "
                    f"{existing.region.name!r}")
            return existing
        region = self.add_region(region_name)
        site = Site(name, region)
        self._sites[name] = site
        self._sites_by_region[region_name].append(site)
        return site

    # -- lookup ---------------------------------------------------------------

    @property
    def regions(self) -> List[Region]:
        return list(self._regions.values())

    @property
    def sites(self) -> List[Site]:
        return list(self._sites.values())

    def site(self, name: str) -> Site:
        try:
            return self._sites[name]
        except KeyError:
            raise KeyError(f"unknown site {name!r}") from None

    def region(self, name: str) -> Region:
        try:
            return self._regions[name]
        except KeyError:
            raise KeyError(f"unknown region {name!r}") from None

    def sites_in_region(self, region: Region) -> List[Site]:
        return list(self._sites_by_region.get(region.name, []))

    def same_region(self, a: Site, b: Site) -> bool:
        return a.region == b.region

    def site_pairs(self) -> Iterable[Tuple[Site, Site]]:
        """All unordered site pairs, useful for exhaustive reachability checks."""
        sites = self.sites
        for i, a in enumerate(sites):
            for b in sites[i + 1:]:
                yield a, b

    def __contains__(self, site: Site) -> bool:
        return self._sites.get(site.name) is site

    def __len__(self) -> int:
        return len(self._sites)

    def __repr__(self) -> str:
        return (f"<NetworkTopology regions={len(self._regions)} "
                f"sites={len(self._sites)}>")


def make_multinational_topology(
        region_names: Optional[Iterable[str]] = None,
        sites_per_region: int = 2) -> NetworkTopology:
    """Build the paper's figure-1 style multi-national footprint.

    Parameters
    ----------
    region_names:
        Names of the countries covered.  Defaults to three European countries,
        matching the multi-national operator sketched in the paper's figures.
    sites_per_region:
        Number of data-centre sites per country (the paper's figures show one
        or two per country).
    """
    if region_names is None:
        region_names = ("spain", "sweden", "germany")
    if sites_per_region < 1:
        raise ValueError("sites_per_region must be at least 1")
    topology = NetworkTopology()
    for region_name in region_names:
        topology.add_region(region_name)
        for index in range(1, sites_per_region + 1):
            topology.add_site(f"{region_name}-dc{index}", region_name)
    return topology
