"""Shared building blocks for the simulation-based experiments."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.api.operations import Read, Write
from repro.api.qos import QoSProfile
from repro.api.session import Session
from repro.core.config import ClientType, UDRConfig
from repro.core.udr import UDRNetworkFunction
from repro.frontends.hlr_fe import HlrFrontEnd
from repro.frontends.procedures import ProcedureCatalogue
from repro.ldap.operations import ModifyRequest, SearchRequest
from repro.provisioning.operations import ChangeServices, CreateSubscription
from repro.provisioning.system import ProvisioningSystem
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


def run_fe_sample(udr: UDRNetworkFunction, profiles, operations: int,
                  rng_name: str = "exp.fe",
                  from_home_region: bool = True) -> Dict[str, float]:
    """Issue ``operations`` FE reads/updates and return outcome statistics."""
    rng = udr.sim.rng(rng_name)
    pool = ClientPool(udr, prefix=rng_name)
    succeeded = 0
    for index in range(operations):
        profile = profiles[index % len(profiles)]
        site = home_site_of(udr, profile) if from_home_region \
            else udr.topology.sites[index % len(udr.topology.sites)]
        if rng.random() < 0.8:
            request = read_request(profile)
        else:
            request = write_request(profile, servingMsc=f"msc-{index}")
        response = drive(udr, pool.call(request, ClientType.APPLICATION_FE,
                                        site))
        succeeded += int(response.ok)
    return {"attempted": operations, "succeeded": succeeded,
            "availability": succeeded / operations if operations else 1.0}


def run_ps_sample(udr: UDRNetworkFunction, profiles, operations: int,
                  ps_site=None) -> Dict[str, float]:
    """Issue ``operations`` provisioning writes and return outcome statistics."""
    ps_site = ps_site or udr.topology.sites[0]
    ps = ProvisioningSystem("exp-ps", udr, ps_site)
    for index in range(operations):
        profile = profiles[index % len(profiles)]
        drive(udr, ps.provision(ChangeServices(
            profile, changes={"svcBarPremium": bool(index % 2)})))
    return {"attempted": ps.operations_attempted,
            "succeeded": ps.operations_succeeded,
            "availability": ps.success_ratio(),
            "manual_interventions": ps.manual_interventions}


def fresh_profiles(udr: UDRNetworkFunction, count: int,
                   seed: int = 4242) -> List[SubscriberProfile]:
    """Profiles not present in the loaded base (for provisioning creates)."""
    generator = SubscriberGenerator(udr.config.regions, seed=seed)
    return generator.generate(count)


def run_front_end_traffic(udr: UDRNetworkFunction, profiles,
                          rate_per_second: float, duration: float,
                          name: str = "exp-fe") -> HlrFrontEnd:
    """Attach one HLR-FE per region and drive Poisson traffic on each."""
    front_ends = []
    by_region: Dict[str, List[SubscriberProfile]] = {}
    for profile in profiles:
        by_region.setdefault(profile.current_region or profile.home_region,
                             []).append(profile)
    for region, group in by_region.items():
        try:
            site = site_in_region(udr, region)
        except KeyError:
            site = udr.topology.sites[0]
        front_end = HlrFrontEnd(f"{name}-{region}", udr, site)
        udr.sim.process(front_end.traffic_driver(
            group, rate_per_second=rate_per_second, duration=duration))
        front_ends.append(front_end)
    udr.sim.run(until=udr.sim.now + duration + 60.0)
    combined = HlrFrontEnd(f"{name}-combined", udr, udr.topology.sites[0])
    combined.procedures_attempted = sum(fe.procedures_attempted
                                        for fe in front_ends)
    combined.procedures_succeeded = sum(fe.procedures_succeeded
                                        for fe in front_ends)
    return combined
