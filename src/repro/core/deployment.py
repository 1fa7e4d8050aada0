"""Deployment layer: build the static shape of a UDR NF from its config.

:class:`DeploymentBuilder` turns a :class:`~repro.core.config.UDRConfig` into
a :class:`Deployment` -- the sites, blade clusters, storage elements with
geographically dispersed replica sets, replication machinery, LDAP server
pools and Points of Access with their data-location stage instances.  The
handle it returns is treated as immutable by the operation path; only the
lifecycle layer (:mod:`repro.core.lifecycle`) grows or mutates it, e.g. on
scale-out.

Splitting construction out of the operation path mirrors the paper's own
layering: the Points of Access and the data-location stage form the front
tier, the storage elements the back tier, and the request pipeline
(:mod:`repro.core.pipeline`) merely walks the structure built here.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.balancer import PointOfAccess
from repro.cluster.blade_cluster import BladeCluster, ClusterLimits
from repro.cluster.saf import AvailabilityManager
from repro.directory.dit import DirectoryCatalog
from repro.directory.locator import (
    CachedLocator,
    ConsistentHashLocator,
    Locator,
    ProvisionedLocator,
)
from repro.directory.placement import (
    HomeRegionPlacement,
    PlacementCandidate,
    PlacementPolicy,
    RandomPlacement,
    RoundRobinPlacement,
)
from repro.net.network import Network
from repro.net.topology import NetworkTopology, Site
from repro.replication.asynchronous import AsyncReplicationChannel
from repro.replication.multimaster import MultiMasterCoordinator
from repro.replication.mux import ReplicationMux
from repro.replication.quorum import QuorumReplicator
from repro.replication.replica_set import ReplicaSet
from repro.replication.synchronous import DualInSequenceReplicator
from repro.storage.checkpoint import CheckpointPolicy
from repro.storage.partitioning import PartitionScheme
from repro.storage.storage_element import (
    PartitionCopy,
    ReplicaRole,
    StorageElement,
)
from repro.core.config import LocationMode, PlacementMode, UDRConfig

#: LDAP servers in each blade cluster's pool.  The count moves no result:
#: ``LdapServerPool.service_time`` charges one server's time.
LDAP_SERVERS_PER_CLUSTER = 4

#: Record attribute consulted for each identity namespace.
IDENTITY_RECORD_ATTRIBUTE = {
    "imsi": "imsi",
    "msisdn": "msisdn",
    "impu": "impu",
    "impi": "impi",
}


def find_identity_record(copy: PartitionCopy, identity_type: str,
                         value: str) -> Optional[dict]:
    """The record on one partition copy that holds an identity, if any.

    A scan of the copy's store (``None`` for an unknown identity type):
    the data-path fallback for non-IMSI reads and, over every primary
    copy, the cache-miss resolution of :func:`find_identity_location`.
    """
    attribute = IDENTITY_RECORD_ATTRIBUTE.get(identity_type)
    if attribute is None:
        return None
    for key in copy.store.keys():
        record = copy.store.get(key)
        if isinstance(record, dict) and record.get(attribute) == value:
            return record
    return None


def find_identity_location(elements: Mapping[str, StorageElement],
                           identity_type: str, value: str) -> Optional[str]:
    """Search every element's primary copies for an identity.

    This is the "querying multiple or even all the SE in the system" cost
    the paper warns about for cache-miss resolution; both the deployment
    handle and the cached locator's authority callback use it.
    """
    for element in elements.values():
        for copy in element.primary_copies:
            if find_identity_record(copy, identity_type, value) is not None:
                return element.name
    return None


class Deployment:
    """The built UDR deployment: structure, no behaviour.

    The operation pipeline reads this handle; the lifecycle layer is the
    only writer (fail-over, scale-out, recovery).  Fields are assigned once
    at construction; the collections they hold are shared, live views.
    """

    __slots__ = (
        "config", "topology", "network", "availability_manager", "clusters",
        "elements", "element_order", "scheme", "replica_sets", "coordinators",
        "channels", "replication_mux", "dual_replicators",
        "quorum_replicators", "locators", "points_of_access",
        "primary_partition_of_element", "placement_policy", "catalog",
        "change_stream", "history_store",
    )

    def __init__(self, *, config: UDRConfig, topology: NetworkTopology,
                 network: Network, availability_manager: AvailabilityManager,
                 clusters: List[BladeCluster],
                 elements: Dict[str, StorageElement],
                 element_order: List[str], scheme: PartitionScheme,
                 replica_sets: Dict[int, ReplicaSet],
                 coordinators: Dict[int, MultiMasterCoordinator],
                 channels: List[AsyncReplicationChannel],
                 replication_mux: ReplicationMux,
                 dual_replicators: Dict[int, DualInSequenceReplicator],
                 quorum_replicators: Dict[int, QuorumReplicator],
                 locators: Dict[str, Locator],
                 points_of_access: List[PointOfAccess],
                 primary_partition_of_element: Dict[str, int],
                 placement_policy: PlacementPolicy,
                 catalog: Optional[DirectoryCatalog] = None,
                 change_stream=None, history_store=None):
        self.config = config
        self.topology = topology
        self.network = network
        self.availability_manager = availability_manager
        self.clusters = clusters
        self.elements = elements
        self.element_order = element_order
        self.scheme = scheme
        self.replica_sets = replica_sets
        self.coordinators = coordinators
        self.channels = channels
        self.replication_mux = replication_mux
        self.dual_replicators = dual_replicators
        self.quorum_replicators = quorum_replicators
        self.locators = locators
        self.points_of_access = points_of_access
        self.primary_partition_of_element = primary_partition_of_element
        self.placement_policy = placement_policy
        self.catalog = catalog
        self.change_stream = change_stream
        self.history_store = history_store

    # -- lookups -------------------------------------------------------------------

    def element(self, name: str) -> StorageElement:
        return self.elements[name]

    def replica_set_of_element(self, element_name: str) -> ReplicaSet:
        """The replica set whose partition is mastered on ``element_name``."""
        return self.replica_sets[
            self.primary_partition_of_element[element_name]]

    def reachable_elements_from(self, site: Site) -> List[str]:
        return [name for name, element in self.elements.items()
                if element.available
                and self.network.reachable(site, element.site)]

    def authoritative_lookup(self, identity_type: str,
                             value: str) -> Optional[str]:
        """Search every element's primary copies for an identity (cache miss)."""
        return find_identity_location(self.elements, identity_type, value)

    # -- identity registration -----------------------------------------------------

    def register_identities(self, identities: Mapping[str, str],
                            element_name: str, all_locators: bool,
                            serving_locator: Optional[Locator] = None) -> None:
        if all_locators:
            for locator in self.locators.values():
                locator.register(identities, element_name)
        elif serving_locator is not None:
            serving_locator.register(identities, element_name)

    def register_many(self, entries: Sequence[Tuple[str, str, str]],
                      subscriptions: int) -> None:
        """Register ``subscriptions`` subscriptions with every locator at
        once: their ``(identity_type, value, element)`` entries, in order."""
        for locator in self.locators.values():
            locator.register_many(entries, subscriptions)

    def deregister_identities(self, identities: Mapping[str, str]) -> None:
        for locator in self.locators.values():
            locator.deregister(identities)

    # -- placement -----------------------------------------------------------------

    def place_subscriber(self, profile_like, imsi: str) -> str:
        """The storage element a new subscription should be written to."""
        if self.config.location_mode is LocationMode.CONSISTENT_HASH:
            locator = next(iter(self.locators.values()))
            return locator.locate("imsi", imsi)
        return self.placement_policy.choose(profile_like,
                                            self.placement_candidates())

    def placement_candidates(self) -> List[PlacementCandidate]:
        """Every element, in order: what the placement policy chooses
        from.  Each is flagged with whether its :meth:`master_of`, where a
        write placed on it lands, has room for one more subscription."""
        room: Dict[str, bool] = {}
        candidates = []
        for element in self.elements.values():
            master = self.master_of(element.name)
            if master.name not in room:
                room[master.name] = master.has_capacity_for(1)
            candidates.append(PlacementCandidate(
                element_name=element.name, region=element.site.region.name,
                has_capacity=room[master.name]))
        return candidates

    def master_of(self, element_name: str) -> StorageElement:
        """The element holding the master copy of the partition placed on
        ``element_name``: itself, or the promoted one after a fail-over."""
        return self.replica_set_of_element(element_name).master_storage_element

    def __repr__(self) -> str:
        return (f"<Deployment {self.config.name!r} "
                f"sites={len(self.topology)} elements={len(self.elements)} "
                f"poas={len(self.points_of_access)}>")


class DeploymentBuilder:
    """Build a :class:`Deployment` from a config, step by step.

    The builder stays alive for the deployment's lifetime: scale-out asks it
    for additional locators (:meth:`make_locator`) so new Points of Access
    are configured exactly like the original ones.
    """

    def __init__(self, config: UDRConfig, sim):
        self.config = config
        self.sim = sim
        self.topology = NetworkTopology()
        self.clusters: List[BladeCluster] = []
        self.elements: Dict[str, StorageElement] = {}
        self.element_order: List[str] = []
        self.replica_sets: Dict[int, ReplicaSet] = {}
        self.coordinators: Dict[int, MultiMasterCoordinator] = {}
        self.channels: List[AsyncReplicationChannel] = []
        self.replication_mux: Optional[ReplicationMux] = None
        self.dual_replicators: Dict[int, DualInSequenceReplicator] = {}
        self.quorum_replicators: Dict[int, QuorumReplicator] = {}
        self.locators: Dict[str, Locator] = {}
        self.points_of_access: List[PointOfAccess] = []
        self.primary_partition_of_element: Dict[str, int] = {}
        self.network: Optional[Network] = None
        self.scheme: Optional[PartitionScheme] = None

    def build(self) -> Deployment:
        config = self.config
        self._build_topology()
        self.network = Network(self.sim, self.topology,
                               name=f"{config.name}.net")
        availability_manager = AvailabilityManager(
            self.sim, name=f"{config.name}.amf")
        self._build_clusters_and_elements()
        self._build_replica_sets()
        catalog = self._build_catalog()
        change_stream, history_store = self._build_cdc()
        self._build_replicators(availability_manager)
        self._build_points_of_access()
        placement_policy = self._build_placement_policy()
        return Deployment(
            config=config, topology=self.topology, network=self.network,
            availability_manager=availability_manager, clusters=self.clusters,
            elements=self.elements, element_order=self.element_order,
            scheme=self.scheme, replica_sets=self.replica_sets,
            coordinators=self.coordinators, channels=self.channels,
            replication_mux=self.replication_mux,
            dual_replicators=self.dual_replicators,
            quorum_replicators=self.quorum_replicators, locators=self.locators,
            points_of_access=self.points_of_access,
            primary_partition_of_element=self.primary_partition_of_element,
            placement_policy=placement_policy, catalog=catalog,
            change_stream=change_stream, history_store=history_store)

    # -- build steps ---------------------------------------------------------------

    def _build_topology(self) -> None:
        for region in self.config.regions:
            self.topology.add_region(region)
            for index in range(1, self.config.sites_per_region + 1):
                self.topology.add_site(f"{region}-dc{index}", region)

    def _build_clusters_and_elements(self) -> None:
        checkpoint_policy = CheckpointPolicy(
            period=self.config.checkpoint_period)
        # Interleave elements across sites so consecutive elements sit at
        # different sites; the round-robin replica layout then places every
        # secondary copy at a different geographic location, as required.
        per_site_elements: List[List[StorageElement]] = []
        for site in self.topology.sites:
            cluster = BladeCluster(
                name=f"cluster-{site.name}", site=site,
                limits=ClusterLimits())
            self.clusters.append(cluster)
            site_elements = []
            for index in range(self.config.storage_elements_per_site):
                element = StorageElement(
                    name=f"se-{site.name}-{index}",
                    site=site,
                    subscriber_capacity=self.config.subscriber_capacity_per_element,
                    checkpoint_policy=checkpoint_policy)
                cluster.add_storage_element(element)
                self.elements[element.name] = element
                site_elements.append(element)
            for _ in range(LDAP_SERVERS_PER_CLUSTER):
                cluster.add_ldap_server()
            per_site_elements.append(site_elements)
        for index in range(self.config.storage_elements_per_site):
            for site_elements in per_site_elements:
                self.element_order.append(site_elements[index].name)

    def _build_replica_sets(self) -> None:
        self.scheme = PartitionScheme(num_partitions=len(self.element_order))
        for partition in self.scheme:
            replica_set = ReplicaSet(partition)
            primary_name = self.element_order[partition.index]
            replica_set.add_member(self.elements[primary_name],
                                   ReplicaRole.PRIMARY)
            self.primary_partition_of_element[primary_name] = partition.index
            count = len(self.element_order)
            for offset in range(1, self.config.replication_factor):
                secondary_name = self.element_order[
                    (partition.index + offset) % count]
                replica_set.add_member(self.elements[secondary_name],
                                       ReplicaRole.SECONDARY)
            self.replica_sets[partition.index] = replica_set
            self.coordinators[partition.index] = MultiMasterCoordinator(
                replica_set, enabled=self.config.multi_master_enabled())

    def _build_catalog(self) -> DirectoryCatalog:
        """The DIT catalog, maintained from every partition copy's WAL.

        Every member copy is tapped for its own commits
        (:meth:`~repro.storage.storage_element.PartitionCopy.
        tap_local_commits`), so each logical commit folds into the catalog
        exactly once, across fail-over included.
        """
        from repro.ldap.schema import SubscriberSchema
        catalog = DirectoryCatalog(SubscriberSchema.catalog_view,
                                   SubscriberSchema.INDEXED_ATTRIBUTES)
        for partition_index, replica_set in self.replica_sets.items():
            for _element, copy in replica_set.members():
                copy.tap_local_commits(
                    partial(catalog.apply_commit, partition_index))
        return catalog

    def _build_cdc(self):
        """The CDC plane: change stream + audit history (``config.cdc``).

        Taps every member copy for its own commits, exactly like the
        catalog; a paused stream's taps pin WAL retention.  ``cdc=None``
        builds nothing: no taps, no pins.
        """
        policy = self.config.cdc
        if policy is None:
            return None, None
        from repro.cdc import ChangeStream, HistoryStore
        stream = ChangeStream(retention_events=policy.stream_retention_events)
        history = HistoryStore(
            stream,
            max_entries_per_record=policy.history_max_entries_per_record)
        for partition_index, replica_set in self.replica_sets.items():
            for _element, copy in replica_set.members():
                stream.tap(partition_index, copy)
        return stream, history

    def _build_replicators(self, availability_manager) -> None:
        # A quorum write waits for a majority of the replica set.
        write_quorum = self.config.replication_factor // 2 + 1
        # Recovery notifications re-arm stalled replication links exactly
        # when their endpoint comes back, instead of a cadence retry.
        self.replication_mux = ReplicationMux(
            self.sim, self.network, availability_manager,
            ship_linger=self.config.replication_interval,
            wal_retention=self.config.wal_retention)
        for index, replica_set in self.replica_sets.items():
            for slave_name in replica_set.slave_names():
                channel = AsyncReplicationChannel(self.sim, replica_set,
                                                  slave_name)
                self.channels.append(channel)
                self.replication_mux.attach(channel)
            self.dual_replicators[index] = DualInSequenceReplicator(
                self.sim, self.network, replica_set)
            self.quorum_replicators[index] = QuorumReplicator(
                self.sim, self.network, replica_set,
                write_quorum=write_quorum)

    def _build_points_of_access(self) -> None:
        for cluster in self.clusters:
            locator = self.make_locator(cluster.name)
            self.locators[cluster.name] = locator
            poa = PointOfAccess(
                name=f"poa-{cluster.site.name}", site=cluster.site,
                ldap_pool=cluster.ldap_pool, locator=locator)
            self.points_of_access.append(poa)

    def make_locator(self, name: str) -> Locator:
        """A data-location stage instance for one cluster (also scale-out)."""
        mode = self.config.location_mode
        if mode is LocationMode.PROVISIONED_MAPS:
            return ProvisionedLocator()
        if mode is LocationMode.CACHED_MAPS:
            return CachedLocator(authority=self._authoritative_lookup,
                                 fanout=max(1, len(self.elements)))
        return ConsistentHashLocator(sorted(self.elements))

    def _authoritative_lookup(self, identity_type: str,
                              value: str) -> Optional[str]:
        # The builder's element dict is the same live dict the deployment
        # shares, so locators made before or after scale-out see all elements.
        return find_identity_location(self.elements, identity_type, value)

    def _build_placement_policy(self) -> PlacementPolicy:
        mode = self.config.placement
        if mode is PlacementMode.RANDOM:
            return RandomPlacement(self.sim.rng("placement"))
        if mode is PlacementMode.ROUND_ROBIN:
            return RoundRobinPlacement()
        return HomeRegionPlacement()
