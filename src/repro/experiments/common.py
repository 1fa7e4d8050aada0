"""Shared building blocks for the simulation-based experiments."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.api.operations import Read, Write
from repro.api.qos import QoSProfile
from repro.api.session import Session
from repro.core.config import ClientType, UDRConfig
from repro.core.udr import UDRNetworkFunction
from repro.ldap.operations import ModifyRequest, SearchRequest
from repro.subscriber.generator import SubscriberGenerator
from repro.subscriber.profile import SubscriberProfile


def build_loaded_udr(config: Optional[UDRConfig] = None,
                     subscribers: int = 90,
                     seed: int = 11) -> Tuple[UDRNetworkFunction,
                                              List[SubscriberProfile]]:
    """A started deployment with a home-region-consistent subscriber base."""
    config = config or UDRConfig(seed=seed)
    udr = UDRNetworkFunction(config)
    udr.start()
    generator = SubscriberGenerator(config.regions, seed=seed)
    profiles = generator.generate(subscribers)
    udr.load_subscriber_base(profiles)
    return udr, profiles


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, int(round(fraction * (len(sorted_values) - 1)))))
    return sorted_values[index]


def drive(udr: UDRNetworkFunction, generator, horizon: float = 3600.0):
    """Run one client generator to completion and return its value."""
    process = udr.sim.process(generator)
    udr.sim.run_until_triggered(process, limit=udr.sim.now + horizon)
    if not process.triggered:
        raise RuntimeError("operation did not finish within the horizon")
    if not process.ok:
        raise process.exception
    return process.value


def site_in_region(udr: UDRNetworkFunction, region: str):
    for site in udr.topology.sites:
        if site.region.name == region:
            return site
    raise KeyError(f"no site in region {region!r}")


def home_site_of(udr: UDRNetworkFunction, profile: SubscriberProfile):
    return site_in_region(udr, profile.current_region or profile.home_region)


def read_request(profile: SubscriberProfile) -> SearchRequest:
    """One subscriber read, built through the typed operation layer."""
    return Read(profile.identities.imsi).to_request()


def write_request(profile: SubscriberProfile, **changes) -> ModifyRequest:
    """One subscriber update, built through the typed operation layer."""
    return Write(profile.identities.imsi, changes=dict(changes)).to_request()


class ClientPool:
    """Lazily attached sessions, one per ``(client type, site)``.

    The experiments issue all traffic through the session API, and a pool
    per experiment keeps attachment names (and so the
    ``api.client.<name>.*`` metric scopes) stable across a run.  ``qos``
    (optional) becomes every attachment's default profile.
    """

    def __init__(self, udr: UDRNetworkFunction, prefix: str = "exp",
                 qos: Optional[QoSProfile] = None):
        self.udr = udr
        self.prefix = prefix
        self.qos = qos
        self._sessions: Dict[Tuple[ClientType, object], Session] = {}

    def session(self, client_type: ClientType, site) -> Session:
        key = (client_type, site)
        if key not in self._sessions:
            client = self.udr.attach(
                f"{self.prefix}-{client_type.value}@{site.name}", site,
                client_type=client_type, qos=self.qos)
            self._sessions[key] = client.session()
        return self._sessions[key]

    def call(self, request, client_type: ClientType, site):
        """Generator: one request through the matching session, inline."""
        response = yield from self.session(client_type, site).call(request)
        return response

    def submit(self, request, client_type: ClientType, site,
               qos: Optional[QoSProfile] = None):
        """Issue one request without waiting; returns its ResponseFuture."""
        return self.session(client_type, site).submit(request, qos)
