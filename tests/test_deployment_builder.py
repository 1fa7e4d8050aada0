"""Unit tests for the deployment layer's builder invariants."""

import pytest

from repro.core import (
    Deployment,
    DeploymentBuilder,
    LocationMode,
    PlacementMode,
    UDRConfig,
)
from repro.directory.locator import (
    CachedLocator,
    ConsistentHashLocator,
    ProvisionedLocator,
)
from repro.directory.placement import (
    HomeRegionPlacement,
    RandomPlacement,
    RoundRobinPlacement,
)
from repro.sim.engine import Simulation


def build(config=None) -> Deployment:
    config = config or UDRConfig(seed=3)
    return DeploymentBuilder(config, Simulation(seed=config.seed)).build()


class TestStructure:
    def test_counts_match_config(self):
        config = UDRConfig(seed=3)
        deployment = build(config)
        assert len(deployment.topology.sites) == config.total_sites
        assert len(deployment.elements) == config.total_storage_elements
        assert len(deployment.clusters) == config.total_sites
        assert len(deployment.points_of_access) == config.total_sites
        assert len(deployment.replica_sets) == config.total_storage_elements
        assert len(deployment.locators) == config.total_sites
        # One async channel per (partition, slave); one dual and one quorum
        # replicator per partition.
        slaves_per_partition = config.replication_factor - 1
        assert len(deployment.channels) == \
            config.total_storage_elements * slaves_per_partition
        assert len(deployment.dual_replicators) == \
            config.total_storage_elements
        assert len(deployment.quorum_replicators) == \
            config.total_storage_elements

    @pytest.mark.parametrize("replication_factor", [1, 2, 3])
    def test_quorum_writes_wait_for_a_majority(self, replication_factor):
        """The quorum is derived, not configured: a majority of the replica
        set, which is ``min(2, RF)`` for every RF the deployments use."""
        deployment = build(UDRConfig(seed=3,
                                     replication_factor=replication_factor))
        assert {replicator.write_quorum for replicator
                in deployment.quorum_replicators.values()} == \
            {min(2, replication_factor)}

    def test_element_order_interleaves_sites(self):
        deployment = build()
        sites = [deployment.elements[name].site
                 for name in deployment.element_order]
        for first, second in zip(sites, sites[1:]):
            assert first != second, \
                "consecutive elements in the replica layout sit at " \
                "different sites"

    def test_replica_sets_are_geo_dispersed(self):
        config = UDRConfig(seed=3)
        deployment = build(config)
        for replica_set in deployment.replica_sets.values():
            member_sites = {replica_set.element(name).site
                            for name in replica_set.member_names}
            assert len(member_sites) == config.replication_factor

    def test_primary_partition_mapping_is_consistent(self):
        deployment = build()
        for element_name, index in \
                deployment.primary_partition_of_element.items():
            replica_set = deployment.replica_sets[index]
            assert replica_set.master_element_name == element_name
            assert deployment.replica_set_of_element(element_name) \
                is replica_set
        # Every partition has exactly one home element.
        assert sorted(deployment.primary_partition_of_element.values()) == \
            sorted(deployment.replica_sets)

    def test_each_poa_has_its_own_locator(self):
        deployment = build()
        locators = [poa.locator for poa in deployment.points_of_access]
        assert len({id(locator) for locator in locators}) == len(locators)
        assert set(locators) == set(deployment.locators.values())


class TestLocatorModes:
    def test_provisioned_maps(self):
        deployment = build(UDRConfig(seed=3))
        assert all(isinstance(locator, ProvisionedLocator)
                   for locator in deployment.locators.values())

    def test_cached_maps(self):
        deployment = build(UDRConfig(
            location_mode=LocationMode.CACHED_MAPS, seed=3))
        assert all(isinstance(locator, CachedLocator)
                   for locator in deployment.locators.values())

    def test_consistent_hash(self):
        deployment = build(UDRConfig(
            location_mode=LocationMode.CONSISTENT_HASH, seed=3))
        assert all(isinstance(locator, ConsistentHashLocator)
                   for locator in deployment.locators.values())

    def test_make_locator_returns_fresh_instances(self):
        config = UDRConfig(seed=3)
        builder = DeploymentBuilder(config, Simulation(seed=3))
        builder.build()
        first = builder.make_locator("cluster-x")
        second = builder.make_locator("cluster-x")
        assert first is not second


class TestPlacementPolicies:
    def test_home_region_default(self):
        deployment = build()
        assert isinstance(deployment.placement_policy, HomeRegionPlacement)

    def test_random_and_round_robin(self):
        random_deployment = build(UDRConfig(
            placement=PlacementMode.RANDOM, seed=3))
        assert isinstance(random_deployment.placement_policy, RandomPlacement)
        rr_deployment = build(UDRConfig(
            placement=PlacementMode.ROUND_ROBIN, seed=3))
        assert isinstance(rr_deployment.placement_policy, RoundRobinPlacement)


class TestConfigValidation:
    def test_new_knobs_validated(self):
        with pytest.raises(ValueError):
            UDRConfig(location_cache_capacity=-1)


class TestCommitLogTaps:
    """Every log follower taps each copy once, at build time."""

    def test_fail_over_keeps_taps_and_folds_once(self):
        from repro.core.config import CdcPolicy
        from tests.conftest import build_udr

        udr, _ = build_udr(UDRConfig(seed=3, replication_factor=3,
                                     cdc=CdcPolicy()),
                           subscribers=20)
        replica_set = udr.replica_sets[0]

        def taps_per_wal():
            return {copy.wal.name: len(copy.wal.taps)
                    for replica_set in udr.replica_sets.values()
                    for _, copy in replica_set.members()}

        before = taps_per_wal()
        # Catalog, change stream and mux: three followers per log.
        assert set(before.values()) == {3}
        for _ in range(3):
            assert udr.fail_over(replica_set.master_element_name)
        assert taps_per_wal() == before
        udr.sim.run_for(1.0)  # drain the hand-off shipping rounds

        master = replica_set.master_copy
        key = next(iter(master.store.keys()))
        upserts, armed = [], []
        catalog_upsert, mux_arm = udr.catalog.upsert, udr.replication_mux._arm
        udr.catalog.upsert = lambda *args: upserts.append(args[0]) or \
            catalog_upsert(*args)
        udr.replication_mux._arm = lambda key, delay: armed.append(key) or \
            mux_arm(key, delay)
        folded = udr.change_stream.events_folded
        tx = master.transactions.begin()
        tx.write(key, dict(master.store.read_committed(key),
                           servingMsc="msc-after-failover"))
        tx.commit(timestamp=udr.sim.now)

        assert upserts == [key]
        assert udr.change_stream.events_folded == folded + 1
        # One mux wake: each live link of the partition armed once (the
        # promoted copy's own channel is inactive and arms nothing).
        live_links = [channel.link_sites() for channel in udr.channels
                      if channel.replica_set is replica_set
                      and channel.link_sites() is not None]
        assert live_links
        assert [key for key in armed if key is not None] == live_links
