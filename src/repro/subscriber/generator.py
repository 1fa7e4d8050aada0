"""Deterministic synthetic subscriber base generation.

The paper reasons about hundreds of millions of subscribers with an "average
profile"; the experiments need much smaller but structurally identical
populations.  The generator produces profiles deterministically from a seed:
home regions follow a configurable population split, a fraction of
subscriptions belongs to named organisations (a searchable attribute), IMS
is enabled for a configurable share (IMS procedures cost more LDAP
operations), and a few percent carry non-default service settings.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence

from repro.sim.rng import derive_seed
from repro.subscriber.identities import IdentitySet
from repro.subscriber.profile import SubscriberProfile
from repro.subscriber.services import ServiceProfile


class SubscriberGenerator:
    """Generates deterministic subscriber profiles.

    Parameters
    ----------
    regions:
        Region names of the operator's footprint.
    seed:
        Root seed; the same seed and parameters always produce the same base.
    region_weights:
        Optional relative population weights per region (defaults to uniform).
    ims_share:
        Fraction of subscriptions with IMS enabled.
    organisation_share:
        Fraction of subscriptions belonging to a named organisation
        (candidates for regulatory pinning).
    """

    def __init__(self, regions: Sequence[str], seed: int = 0,
                 region_weights: Optional[Dict[str, float]] = None,
                 ims_share: float = 0.3,
                 organisation_share: float = 0.02):
        if not regions:
            raise ValueError("need at least one region")
        if not 0.0 <= ims_share <= 1.0:
            raise ValueError("ims_share must be within [0, 1]")
        if not 0.0 <= organisation_share <= 1.0:
            raise ValueError("organisation_share must be within [0, 1]")
        self.regions = list(regions)
        self.seed = seed
        self.ims_share = ims_share
        self.organisation_share = organisation_share
        weights = region_weights or {}
        self.region_weights = [max(0.0, weights.get(region, 1.0))
                               for region in self.regions]
        if sum(self.region_weights) <= 0:
            raise ValueError("region weights must not all be zero")
        self._rng = random.Random(derive_seed(seed, "subscriber-generator"))
        # Different seeds generate disjoint identity ranges, so populations
        # built for different purposes (initial base, later provisioning
        # batches) never collide on IMSI/MSISDN.
        self._next_serial = 1 + (derive_seed(seed, "serial-base") % 90_000) \
            * 10_000

    # -- generation -------------------------------------------------------------

    def generate_one(self) -> SubscriberProfile:
        """Generate the next subscriber profile."""
        serial = self._next_serial
        self._next_serial += 1
        region = self._rng.choices(self.regions,
                                   weights=self.region_weights, k=1)[0]
        identities = IdentitySet.for_serial(region, serial)
        services = self._random_services()
        organisation = None
        if self._rng.random() < self.organisation_share:
            organisation = f"org-{region}-{self._rng.randint(1, 5)}"
        return SubscriberProfile(
            identities=identities,
            home_region=region,
            organisation=organisation,
            services=services,
            authentication_key=f"k{serial:032x}",
        )

    def generate(self, count: int) -> List[SubscriberProfile]:
        """Generate ``count`` profiles as a list."""
        if count < 0:
            raise ValueError("count cannot be negative")
        return [self.generate_one() for _ in range(count)]

    def stream(self, count: int) -> Iterator[SubscriberProfile]:
        """Generate ``count`` profiles lazily (for large populations)."""
        for _ in range(count):
            yield self.generate_one()

    def _random_services(self) -> ServiceProfile:
        rng = self._rng
        services = ServiceProfile()
        services.ims_enabled = rng.random() < self.ims_share
        if rng.random() < 0.10:
            services.barring_premium_numbers = True
        if rng.random() < 0.05:
            services.barring_outgoing_international = True
        if rng.random() < 0.15:
            services.call_forwarding_unconditional = \
                f"+999{rng.randint(10_000_000, 99_999_999)}"
        if rng.random() < 0.08:
            services.roaming_allowed = False
        return services

    # -- statistics ----------------------------------------------------------------

    def region_distribution(self, profiles: Sequence[SubscriberProfile]
                            ) -> Dict[str, int]:
        """Count of generated profiles per home region."""
        counts = {region: 0 for region in self.regions}
        for profile in profiles:
            counts[profile.home_region] = counts.get(profile.home_region, 0) + 1
        return counts

    def __repr__(self) -> str:
        return (f"<SubscriberGenerator regions={self.regions} "
                f"generated={self._next_serial - 1}>")
