"""Lifecycle layer: everything that changes a deployment after it is built.

:class:`ClusterController` owns the dynamic side of a UDR NF: starting and
stopping background processes (replication channels, checkpoint loops),
crash/recovery of storage elements through the availability manager,
fail-over promotions, post-partition consistency restoration and scale-out
of new blade clusters.  It is the only writer of the
:class:`~repro.core.deployment.Deployment` handle, and it drives the
location-cache invalidations the pipeline's fast path depends on
(fail-over drops cached entries pointing at the failed element; a scaled-out
PoA's cache stays cold until its locator has synced).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.balancer import PointOfAccess
from repro.cluster.blade_cluster import BladeCluster
from repro.directory.locator import ProvisionedLocator
from repro.directory.sync import MapSynchroniser
from repro.replication.errors import ReplicationError
from repro.replication.restoration import (
    ConsistencyRestoration,
    RestorationReport,
)
from repro.storage.storage_element import StorageElement
from repro.core.config import UDRConfig
from repro.core.deployment import (
    LDAP_SERVERS_PER_CLUSTER,
    Deployment,
    DeploymentBuilder,
)
from repro.core.location_cache import LocationCacheGroup


class ClusterController:
    """Crash, recover, fail over, resynchronise, scale out, restore."""

    def __init__(self, sim, config: UDRConfig, deployment: Deployment,
                 builder: DeploymentBuilder, caches: LocationCacheGroup):
        self.sim = sim
        self.config = config
        self.deployment = deployment
        self.builder = builder
        self.caches = caches
        self.started = False
        #: Set by the façade when ``config.membership`` is enabled; the
        #: membership plane's promotion protocol stamps every fail-over
        #: with a fresh epoch and fences the deposed master.
        self.membership = None
        for element in deployment.elements.values():
            deployment.availability_manager.manage(
                element.name,
                fail_action=element.crash,
                repair_action=self._make_recovery_action(element))

    # -- background processes ------------------------------------------------------

    def start(self) -> None:
        """Start background processes: replication and checkpoints.

        Asynchronous replication runs through the event-driven site-pair
        multiplexer -- zero simulator wakeups while nothing commits.
        """
        if self.started:
            return
        self.started = True
        self.deployment.replication_mux.start()
        for element in self.deployment.elements.values():
            self.sim.process(self._checkpoint_loop(element),
                             name=f"checkpoint:{element.name}")

    def stop(self) -> None:
        self.deployment.replication_mux.stop()
        self.started = False

    def _checkpoint_loop(self, element: StorageElement):
        period = self.config.checkpoint_period
        while self.started:
            yield from self.sim.hold(period)
            if not element.available:
                continue
            for copy in element.copies:
                copy.checkpointer.checkpoint(timestamp=self.sim.now)

    # -- fault handling ------------------------------------------------------------

    def crash_element(self, name: str, auto_repair: bool = False) -> None:
        self.deployment.availability_manager.fail_component(
            name, auto_repair=auto_repair)

    def recover_element(self, name: str) -> None:
        self.deployment.availability_manager.repair_component(name)

    def _make_recovery_action(self, element: StorageElement) -> Callable[[], None]:
        """Recovery restores the disk image and then resyncs from peer copies.

        A real storage element comes back with the state of its last dump and
        catches up from the surviving copies before taking traffic again; the
        resync here copies any newer record versions from the most up-to-date
        available peer copy of each hosted partition.
        """
        def recover() -> None:
            element.recover(timestamp=self.sim.now)
            self.resynchronise_element(element)
            # Backlog that accumulated while the element was down has no
            # future commit to wake the mux; the mux's availability-manager
            # subscription (bound by the deployment builder) re-arms those
            # links right after this repair action returns.
        return recover

    def resynchronise_element(self, element: StorageElement) -> None:
        for copy in element.copies:
            replica_set = self.deployment.replica_sets.get(copy.partition.index)
            if replica_set is None:
                continue
            best_name = replica_set.most_up_to_date(
                [name for name in replica_set.available_members()
                 if name != element.name])
            if best_name is None:
                continue
            source = replica_set.copy_on(best_name).store
            target = copy.store
            for key in source.keys():
                newest = source.latest(key)
                current = target.latest(key)
                if newest is None:
                    continue
                if current is None or current.position < newest.position:
                    # Position order -- ``(epoch, commit_seq)`` -- so a
                    # rejoining deposed master's stale high sequence numbers
                    # never shadow the new epoch's writes.
                    target.apply_version(newest)

    def fail_over(self, element_name: str,
                  candidates: Optional[List[str]] = None,
                  trigger: str = "oracle") -> Dict[int, str]:
        """Promote new masters for every partition mastered on ``element_name``.

        Cached locations pointing at the failed element are dropped from
        every PoA's cache so the next request re-resolves through the
        locator.  ``candidates`` restricts the promotion pool (the
        membership plane passes the quorum-side members); with
        ``config.membership`` enabled this method is the *internal arm* of
        the :class:`~repro.cluster.detector.PromotionProtocol`, which
        epoch-stamps every promotion it performs.
        """
        promotions: Dict[int, str] = {}
        for index, replica_set in self.deployment.replica_sets.items():
            if replica_set.master_element_name != element_name:
                continue
            try:
                promotions[index] = replica_set.fail_over(candidates)
            except ReplicationError:
                continue
        if promotions:
            self.caches.invalidate_element(element_name)
            # A new master means a new (master site, slave site) link for
            # the partition's shipments.
            self.deployment.replication_mux.rebind()
            if self.membership is not None:
                self.membership.register_promotions(element_name, promotions,
                                                    trigger=trigger)
        return promotions

    # -- restoration ---------------------------------------------------------------

    def restore_consistency(self, resolver=None) -> List[RestorationReport]:
        """Run post-partition consistency restoration over every partition."""
        restoration = ConsistencyRestoration(resolver=resolver)
        reports = []
        for index, replica_set in sorted(self.deployment.replica_sets.items()):
            reports.append(restoration.restore(replica_set,
                                               timestamp=self.sim.now))
            self.deployment.coordinators[index].clear_divergence()
        return reports

    # -- scale-out -----------------------------------------------------------------

    def scale_out_new_cluster(self, region: str,
                              synchroniser: Optional[MapSynchroniser] = None
                              ) -> Tuple[PointOfAccess, Optional[object]]:
        """Deploy an additional blade cluster (new PoA) in ``region``.

        With provisioned maps the new data-location stage instance must sync
        from a peer before the PoA can serve (returns the sync process);
        cached and hashed locators are ready immediately (returns ``None``).
        """
        deployment = self.deployment
        site_index = len([s for s in deployment.topology.sites
                          if s.region.name == region]) + 1
        site = deployment.topology.add_site(f"{region}-dc{site_index}", region)
        cluster = BladeCluster(name=f"cluster-{site.name}", site=site)
        for _ in range(LDAP_SERVERS_PER_CLUSTER):
            cluster.add_ldap_server()
        deployment.clusters.append(cluster)
        locator = self.builder.make_locator(cluster.name)
        deployment.locators[cluster.name] = locator
        poa = PointOfAccess(name=f"poa-{site.name}", site=site,
                            ldap_pool=cluster.ldap_pool, locator=locator)
        deployment.points_of_access.append(poa)
        sync_process = None
        if isinstance(locator, ProvisionedLocator):
            peer = next((existing for existing in deployment.locators.values()
                         if isinstance(existing, ProvisionedLocator)
                         and existing is not locator and not existing.syncing),
                        None)
            if peer is not None:
                # The PoA must not serve before its maps are in place, even
                # before the sync process gets its first slice of time.
                locator.begin_sync(peer.directory.total_entries())
                synchroniser = synchroniser or MapSynchroniser()
                source_site = deployment.clusters[0].site
                sync_process = self.sim.process(
                    synchroniser.sync(self.sim, deployment.network,
                                      source_site, site, peer, locator),
                    name=f"map-sync:{cluster.name}")
        return poa, sync_process
