"""The message fabric every simulated actor communicates over.

The network classifies each (source site, destination site) pair into a link
class -- local LAN, intra-region, or inter-region backbone -- and applies the
corresponding latency/loss profile.  It also carries the current set of
:class:`~repro.net.partition.NetworkPartition` objects and failed sites, so a
single ``transfer`` call answers the only questions the CAP analysis needs:
*can these two sites talk right now, and how long does a message take?*
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.sim import units
from repro.net.errors import NetworkPartitionedError, NetworkTimeoutError
from repro.net.latency import LatencyModel, LogNormalLatency
from repro.net.partition import NetworkPartition
from repro.net.topology import NetworkTopology, Site


class LinkClass(enum.Enum):
    """The three classes of IP path in a multi-national operator network."""

    LOCAL = "local"          # within one data-centre site (cluster LAN)
    REGIONAL = "regional"    # between sites of the same region/country
    BACKBONE = "backbone"    # between regions, over the IP backbone

    #: Members are singletons compared by identity, so the identity hash
    #: agrees with equality; unlike ``Enum.__hash__`` it runs no Python
    #: code on the per-message link-keyed lookups.
    __hash__ = object.__hash__


@dataclass
class LinkProfile:
    """Latency/loss behaviour of one link class."""

    latency: LatencyModel
    loss_probability: float = 0.0
    timeout: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


def default_link_profiles() -> Dict[LinkClass, LinkProfile]:
    """Planning-grade defaults for a multi-national operator.

    The backbone is both slower and lossier than local networks, which is the
    paper's stated reason why widely distributed data is less available
    (the H-R link of figure 5).
    """
    return {
        LinkClass.LOCAL: LinkProfile(
            latency=LogNormalLatency(median=0.2 * units.MILLISECOND,
                                     sigma=0.2,
                                     floor=0.05 * units.MILLISECOND),
            loss_probability=0.00001,
            timeout=0.1,
        ),
        LinkClass.REGIONAL: LinkProfile(
            latency=LogNormalLatency(median=3.0 * units.MILLISECOND,
                                     sigma=0.25,
                                     floor=1.0 * units.MILLISECOND),
            loss_probability=0.0001,
            timeout=0.5,
        ),
        LinkClass.BACKBONE: LinkProfile(
            latency=LogNormalLatency(median=30.0 * units.MILLISECOND,
                                     sigma=0.35,
                                     floor=10.0 * units.MILLISECOND),
            loss_probability=0.001,
            timeout=1.0,
        ),
    }


@dataclass
class NetworkStats:
    """Counters kept by the network for experiment reporting."""

    messages: Dict[LinkClass, int] = field(
        default_factory=lambda: {link: 0 for link in LinkClass})
    bytes: Dict[LinkClass, int] = field(
        default_factory=lambda: {link: 0 for link in LinkClass})
    losses: int = 0
    partition_rejections: int = 0

    def total_messages(self) -> int:
        return sum(self.messages.values())

    def backbone_fraction(self) -> float:
        """Fraction of messages that had to cross the inter-region backbone."""
        total = self.total_messages()
        if total == 0:
            return 0.0
        return self.messages[LinkClass.BACKBONE] / total


class Network:
    """Latency, loss, partitions and site failures for a topology.

    Parameters
    ----------
    sim:
        The owning simulation.
    topology:
        Sites and regions.
    profiles:
        Optional per-link-class :class:`LinkProfile` overrides.
    """

    def __init__(self, sim, topology: NetworkTopology,
                 profiles: Optional[Dict[LinkClass, LinkProfile]] = None,
                 name: str = "net"):
        self.sim = sim
        self.topology = topology
        self.profiles = dict(default_link_profiles())
        if profiles:
            self.profiles.update(profiles)
        self.name = name
        self.stats = NetworkStats()
        self._rng = sim.rng(f"{name}.latency")
        self._loss_rng = sim.rng(f"{name}.loss")
        self._stream_rngs: Dict[str, tuple] = {}
        self._partitions: List[NetworkPartition] = []
        self._failed_sites: Set[Site] = set()
        self._latency_factors: Dict[LinkClass, float] = {
            link: 1.0 for link in LinkClass}

    # -- classification -------------------------------------------------------

    def classify(self, source: Site, destination: Site) -> LinkClass:
        """Return the link class used between two sites."""
        if source is destination or source == destination:
            return LinkClass.LOCAL
        if self.topology.same_region(source, destination):
            return LinkClass.REGIONAL
        return LinkClass.BACKBONE

    # -- partitions and failures ----------------------------------------------

    @property
    def partitions(self) -> List[NetworkPartition]:
        return list(self._partitions)

    def apply_partition(self, partition: NetworkPartition) -> None:
        """Start a partition incident."""
        self._partitions.append(partition)

    def heal_partition(self, partition: NetworkPartition) -> None:
        """End a specific partition incident (no-op if already healed)."""
        if partition in self._partitions:
            self._partitions.remove(partition)

    def clear_partitions(self) -> None:
        """End every ongoing partition incident."""
        self._partitions.clear()

    def fail_site(self, site: Site) -> None:
        """Mark a whole site as down (disaster, power loss...)."""
        self._failed_sites.add(site)

    def restore_site(self, site: Site) -> None:
        self._failed_sites.discard(site)

    def site_failed(self, site: Site) -> bool:
        return site in self._failed_sites

    def reachable(self, source: Site, destination: Site) -> bool:
        """Can a message currently flow from ``source`` to ``destination``?

        Direction-aware: an asymmetric partition
        (:meth:`~repro.net.partition.NetworkPartition.blocks`) can leave
        ``source -> destination`` open while the reverse path is cut, which
        is exactly the crash-vs-partition ambiguity the membership plane's
        detector has to disambiguate.
        """
        failed = self._failed_sites
        if failed and (source in failed or destination in failed):
            return False
        if not self._partitions or source is destination or \
                source == destination:
            return True
        for partition in self._partitions:
            if partition.blocks(source, destination):
                return False
        return True

    # -- latency ---------------------------------------------------------------

    def set_latency_factor(self, link_class: LinkClass, factor: float) -> None:
        """Inflate (or deflate) latencies of one link class, e.g. congestion."""
        if factor <= 0:
            raise ValueError("latency factor must be positive")
        self._latency_factors[link_class] = factor

    def one_way_latency(self, source: Site, destination: Site) -> float:
        """Sample a one-way delay; raises if the pair is partitioned."""
        if not self.reachable(source, destination):
            self.stats.partition_rejections += 1
            raise NetworkPartitionedError(source, destination)
        link = self.classify(source, destination)
        profile = self.profiles[link]
        return profile.latency.sample(self._rng) * self._latency_factors[link]

    def mean_one_way_latency(self, source: Site, destination: Site) -> float:
        """Expected one-way delay (ignores partitions); for analytic planning."""
        link = self.classify(source, destination)
        return self.profiles[link].latency.mean() * self._latency_factors[link]

    # -- message transfer -------------------------------------------------------

    def _stream_rngs_for(self, stream: Optional[str]):
        """The (latency rng, loss rng) pair serving ``stream``.

        Named streams keep different traffic classes' randomness separate:
        background replication shipping draws from its own pair, so the
        *number* of replication transfers (one per channel per round under
        polling, one per site pair under the mux) can never perturb the
        operation path's latency and loss samples -- a prerequisite for
        comparing the two shipping modes under identical seeds.
        """
        if stream is None:
            return self._rng, self._loss_rng
        pair = self._stream_rngs.get(stream)
        if pair is None:
            pair = (self.sim.rng(f"{self.name}.{stream}.latency"),
                    self.sim.rng(f"{self.name}.{stream}.loss"))
            self._stream_rngs[stream] = pair
        return pair

    def transfer(self, source: Site, destination: Site, payload_bytes: int = 512,
                 stream: Optional[str] = None):
        """Simulated one-way message delivery (a generator to ``yield from``).

        ``stream`` names a dedicated randomness stream for this traffic
        class (see :meth:`_stream_rngs_for`); the default shares the
        network-wide pair.

        Raises
        ------
        NetworkPartitionedError
            Immediately, when the destination is unreachable.
        NetworkTimeoutError
            After the link's timeout, when the message is lost.
        """
        if not self.reachable(source, destination):
            self.stats.partition_rejections += 1
            raise NetworkPartitionedError(source, destination)
        link = self.classify(source, destination)
        profile = self.profiles[link]
        self.stats.messages[link] += 1
        self.stats.bytes[link] += payload_bytes
        latency_rng, loss_rng = self._stream_rngs_for(stream)
        if profile.loss_probability and \
                loss_rng.random() < profile.loss_probability:
            self.stats.losses += 1
            yield from self.sim.hold(profile.timeout)
            raise NetworkTimeoutError(source, destination, profile.timeout)
        latency = profile.latency.sample(latency_rng) * \
            self._latency_factors[link]
        yield from self.sim.hold(latency)

    def round_trip(self, source: Site, destination: Site,
                   request_bytes: int = 512, response_bytes: int = 512):
        """Request/response exchange; generator returning the total delay."""
        start = self.sim.now
        yield from self.transfer(source, destination, request_bytes)
        yield from self.transfer(destination, source, response_bytes)
        return self.sim.now - start

    def __repr__(self) -> str:
        return (f"<Network {self.name!r} sites={len(self.topology)} "
                f"partitions={len(self._partitions)} "
                f"failed_sites={len(self._failed_sites)}>")
