"""The UDR network function: a façade over three cooperating layers.

:class:`UDRNetworkFunction` assembles and drives a complete UDC deployment,
delegating to:

* :mod:`repro.core.deployment` -- :class:`~repro.core.deployment.DeploymentBuilder`
  builds the static structure (sites, blade clusters, storage elements with
  geographically dispersed replica sets, LDAP server pools, Points of Access
  with their data-location stage instances, replication channels) from a
  :class:`~repro.core.config.UDRConfig`;
* :mod:`repro.core.pipeline` -- :class:`~repro.core.pipeline.OperationPipeline`
  walks one LDAP request through the paper's stages (PoA, LDAP server time,
  data location with the per-PoA cache fast path, the intra-SE transaction,
  synchronous replication, response), encoding every failure mode of
  interest as an LDAP result code and recording everything in
  :attr:`metrics`;
* :mod:`repro.core.lifecycle` -- :class:`~repro.core.lifecycle.ClusterController`
  owns crash/recovery, fail-over, consistency restoration, scale-out and the
  background replication/checkpoint processes.

Traffic has one front door: :meth:`UDRNetworkFunction.attach` returns a
:class:`~repro.api.session.UDRClient` whose sessions issue typed operations
(see :mod:`repro.api`).  The façade itself issues no requests; code that
must drive the core directly names the layer (``udr.pipeline.execute``,
``udr.dispatcher.submit``).  It keeps the attribute surface the
experiments and tests grew against (``topology``, ``elements``,
``replica_sets``, ``locators``, ...).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.balancer import PointOfAccess
from repro.directory.placement import PlacementCandidate
from repro.directory.sync import MapSynchroniser
from repro.metrics.collector import MetricsRegistry
from repro.net.topology import Site
from repro.replication.restoration import RestorationReport
from repro.sim.engine import Simulation
from repro.storage.storage_element import StorageElement
from repro.core.config import (ClientType, DispatchMode, LocationMode,
                               UDRConfig)
from repro.core.deployment import Deployment, DeploymentBuilder
from repro.core.dispatcher import BatchDispatcher
from repro.core.lifecycle import ClusterController
from repro.core.location_cache import LocationCacheGroup
from repro.core.pipeline import OperationPipeline

if False:  # pragma: no cover - type-checking only (avoids a circular import)
    from repro.api.qos import QoSProfile
    from repro.api.session import UDRClient


class UDRNetworkFunction:
    """A complete, simulated UDR deployment."""

    def __init__(self, config: UDRConfig,
                 simulation: Optional[Simulation] = None):
        self.config = config
        self.sim = simulation or Simulation(seed=config.seed)
        self.metrics = MetricsRegistry(name=config.name)

        self.builder = DeploymentBuilder(config, self.sim)
        self.deployment: Deployment = self.builder.build()
        self.deployment.replication_mux.bind_metrics(self.metrics)
        if self.deployment.catalog is not None:
            self.deployment.catalog.bind_metrics(self.metrics)
        if self.deployment.change_stream is not None:
            self.deployment.change_stream.bind_metrics(self.metrics)
            self.deployment.history_store.bind_metrics(self.metrics)
        self.location_caches = LocationCacheGroup(
            capacity=config.location_cache_capacity)
        self.pipeline = OperationPipeline(self.sim, config, self.deployment,
                                          self.metrics, self.location_caches)
        self.controller = ClusterController(self.sim, config, self.deployment,
                                            self.builder, self.location_caches)
        self.membership = None
        if config.membership is not None:
            # Imported lazily like the reconciler: the detector is a consumer
            # of the built deployment, not a dependency of the build path.
            from repro.cluster.detector import MembershipPlane
            self.membership = MembershipPlane(self.sim, config,
                                              self.deployment,
                                              self.controller)
            self.controller.membership = self.membership.protocol
        self.dispatcher = BatchDispatcher(self.sim, config, self.pipeline,
                                          self.metrics)
        self.reconciler = None
        if config.cdc is not None and \
                config.cdc.reconcile_interval is not None:
            # Imported here like the session layer: repro.cdc is a consumer
            # of core structures, not a dependency of the build path.
            from repro.cdc import Reconciler
            self.reconciler = Reconciler(
                self.sim, self.deployment, config.cdc, self.metrics,
                history=self.deployment.history_store,
                pipeline=self.pipeline)

        # The attribute surface predating the layer split: live views of the
        # deployment handle's collections.
        deployment = self.deployment
        self.topology = deployment.topology
        self.network = deployment.network
        self.availability_manager = deployment.availability_manager
        self.clusters = deployment.clusters
        self.elements = deployment.elements
        self.scheme = deployment.scheme
        self.replica_sets = deployment.replica_sets
        self.coordinators = deployment.coordinators
        self.channels = deployment.channels
        self.replication_mux = deployment.replication_mux
        self.dual_replicators = deployment.dual_replicators
        self.quorum_replicators = deployment.quorum_replicators
        self.locators = deployment.locators
        self.points_of_access = deployment.points_of_access
        self.placement_policy = deployment.placement_policy
        self.catalog = deployment.catalog
        self.change_stream = deployment.change_stream
        self.history = deployment.history_store
        self.subscribers_loaded = 0
        #: Named client attachments (:meth:`attach`), the session API's
        #: per-caller handles.
        self.clients: Dict[str, "UDRClient"] = {}

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Start background processes: replication channels, checkpoints and
        (under ``dispatch_mode=DISPATCHER``) the batch dispatch loop."""
        self.controller.start()
        if self.config.dispatch_mode is DispatchMode.DISPATCHER:
            self.dispatcher.start()
        if self.reconciler is not None:
            self.reconciler.start()
        if self.membership is not None:
            self.membership.start()

    def stop(self) -> None:
        if self.membership is not None:
            self.membership.stop()
        if self.reconciler is not None:
            self.reconciler.stop()
        self.dispatcher.stop()
        self.controller.stop()
        self.pipeline.flush_metrics()

    # --------------------------------------------------------------- loading

    def load_subscriber_base(self, profiles) -> int:
        """Install an initial subscriber base without simulating traffic.

        Each profile is committed on its chosen element's primary copy and
        applied to every secondary copy (so the deployment starts
        consistent), one record at a time through the copy's
        :class:`~repro.storage.transactions.TransactionManager`, exactly as
        a provisioning CREATE commits; the logs, CDC and replication see
        the same commits either way.  What each call does once instead of
        once per profile:

        * placement builds the candidate list once and, after each commit,
          re-counts only the element holding the written master copy (the
          one count that moved) and re-flags every candidate whose writes
          land there; consistent hashing still locates each profile;
        * the catalog folds the call's commits on exit
          (:meth:`~repro.directory.dit.DirectoryCatalog.deferred`): one
          DIT labelling pass for the new keys;
        * the identities are registered with each locator in one
          :meth:`~repro.directory.locator.Locator.register_many`.

        If a profile fails (say, no element has capacity left), the
        profiles committed before it are still folded and registered, and
        the error propagates.  Returns the number of profiles loaded.
        """
        deployment = self.deployment
        hashed = self.config.location_mode is LocationMode.CONSISTENT_HASH
        candidates = [] if hashed else deployment.placement_candidates()
        by_master: Dict[str, List[PlacementCandidate]] = {}
        for candidate in candidates:
            by_master.setdefault(
                deployment.master_of(candidate.element_name).name,
                []).append(candidate)
        choose = deployment.placement_policy.choose
        entries: List[Tuple[str, str, str]] = []
        loaded = 0
        with deployment.catalog.deferred():
            try:
                for profile in profiles:
                    element_name = (
                        deployment.place_subscriber(
                            profile, profile.identities.imsi) if hashed
                        else choose(profile, candidates))
                    replica_set = deployment.replica_set_of_element(
                        element_name)
                    record = self._commit_on_copy(replica_set.master_copy,
                                                  profile.key,
                                                  profile.to_record())
                    for slave_name in replica_set.slave_names():
                        replica_set.copy_on(
                            slave_name).transactions.apply_log_record(record)
                    if not hashed:
                        master = replica_set.master_storage_element
                        room = master.has_capacity_for(1)
                        for candidate in by_master[master.name]:
                            candidate.has_capacity = room
                    entries.extend(
                        (identity_type, value, element_name)
                        for identity_type, value
                        in profile.identities.as_mapping().items())
                    loaded += 1
            finally:
                deployment.register_many(entries, loaded)
        self.subscribers_loaded += loaded
        return loaded

    @staticmethod
    def _commit_on_copy(copy, key, value):
        transaction = copy.transactions.begin()
        transaction.write(key, value)
        return transaction.commit()

    # ------------------------------------------------------------ inspection

    def element(self, name: str) -> StorageElement:
        return self.elements[name]

    def reachable_elements_from(self, site: Site) -> List[str]:
        return self.deployment.reachable_elements_from(site)

    def subscriber_record(self, imsi: str) -> Optional[dict]:
        """Direct (non-simulated) read of the authoritative record, for tests."""
        key = f"sub:{imsi}"
        for replica_set in self.replica_sets.values():
            copy = replica_set.master_copy
            value = copy.store.get(key)
            if value is not None:
                return value
        return None

    # ------------------------------------------------------- fault injection

    def crash_element(self, name: str, auto_repair: bool = False) -> None:
        self.controller.crash_element(name, auto_repair=auto_repair)

    def recover_element(self, name: str) -> None:
        self.controller.recover_element(name)

    def fail_over(self, element_name: str) -> Dict[int, str]:
        """Promote new masters for every partition mastered on ``element_name``."""
        return self.controller.fail_over(element_name)

    # --------------------------------------------------------- restoration

    def restore_consistency(self, resolver=None) -> List[RestorationReport]:
        """Run post-partition consistency restoration over every partition."""
        return self.controller.restore_consistency(resolver=resolver)

    # ------------------------------------------------------------- scale-out

    def scale_out_new_cluster(self, region: str,
                              synchroniser: Optional[MapSynchroniser] = None
                              ) -> Tuple[PointOfAccess, Optional[object]]:
        """Deploy an additional blade cluster (new PoA) in ``region``."""
        return self.controller.scale_out_new_cluster(
            region, synchroniser=synchroniser)

    # ------------------------------------------------------------ client API

    def attach(self, name: str, site: Site,
               client_type: ClientType = ClientType.APPLICATION_FE,
               qos: Optional["QoSProfile"] = None) -> "UDRClient":
        """Attach a named client to the deployment; the session front door.

        Returns the :class:`~repro.api.session.UDRClient` handle bound to
        ``site`` and ``client_type``, carrying ``qos`` as the default
        profile of every session it opens.  Attaching an already-attached
        name returns a fresh handle under the same name (the metrics tag
        is the name, so re-attachment keeps one series per caller).
        """
        # Imported here: the API layer imports core modules, so a module-
        # level import would be circular.
        from repro.api.session import UDRClient
        client = UDRClient(self, name, site, client_type=client_type,
                           qos=qos)
        self.clients[name] = client
        return client

    def flush_metrics(self) -> None:
        """Apply any batched metric records to :attr:`metrics` now."""
        self.pipeline.flush_metrics()

    def __repr__(self) -> str:
        return (f"<UDRNetworkFunction {self.config.name!r} "
                f"sites={len(self.topology)} elements={len(self.elements)} "
                f"subscribers={self.subscribers_loaded}>")
