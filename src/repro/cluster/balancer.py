"""The Point of Access: an L4 balancer in front of a cluster's LDAP servers.

"The PoA to the UDR might be provided by a L4-capable IP balancer running in
a few blades of the cluster.  The balancer spreads LDAP traffic over all the
LDAP servers available in the local blade cluster [and] automatically detects
new LDAP server instances deployed to the blade cluster" (section 3.4.1).

Clients (application front-ends, the provisioning system) talk to the PoA
closest to them; the PoA picks an LDAP server, which resolves data location
through the cluster's locator and drives the storage elements.
"""

from __future__ import annotations

from typing import Optional

from repro.directory.locator import Locator
from repro.ldap.server import LdapServer, LdapServerPool


class PointOfAccess:
    """One PoA: balancer + LDAP pool + local data-location stage instance."""

    def __init__(self, name: str, site, ldap_pool: LdapServerPool,
                 locator: Locator):
        self.name = name
        self.site = site
        self.ldap_pool = ldap_pool
        self.locator = locator
        self.available = True
        self.requests_balanced = 0

    def select_server(self) -> LdapServer:
        """Pick the LDAP server that will handle the next request."""
        if not self.available:
            raise RuntimeError(f"PoA {self.name!r} is not available")
        self.requests_balanced += 1
        return self.ldap_pool.next_server()

    def fail(self) -> None:
        """The PoA goes down (site disaster or balancer failure)."""
        self.available = False

    def restore(self) -> None:
        self.available = True

    @property
    def locator_ready(self) -> bool:
        """False while the local data-location stage is still syncing."""
        syncing = getattr(self.locator, "syncing", False)
        return not syncing

    def can_serve(self) -> bool:
        return self.available and self.locator_ready

    def __repr__(self) -> str:
        state = "up" if self.available else "down"
        return (f"<PointOfAccess {self.name!r} {state} "
                f"servers={len(self.ldap_pool)} site={self.site}>")


def closest_point_of_access(network, client_site,
                            points_of_access) -> Optional[PointOfAccess]:
    """The serving PoA for a client at ``client_site``.

    Preference order: a PoA at the same site, then the reachable PoA with the
    lowest mean latency, mirroring the paper's "there is always a point of
    access to the UDR close -- in network terms -- to any one application
    front-end, as long as the cost of doing so justifies it".
    """
    reachable = []
    for poa in points_of_access:
        if not poa.can_serve():
            continue
        site = poa.site
        if not network.reachable(client_site, site):
            continue
        if site is client_site or site == client_site:
            return poa
        reachable.append(poa)
    if not reachable:
        return None
    return min(reachable,
               key=lambda poa: network.mean_one_way_latency(client_site, poa.site))
