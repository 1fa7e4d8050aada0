"""Integration tests for the UDR operation path (reads, writes, failures)."""

import pytest

from repro.core import (
    ClientType,
    LocationMode,
    PartitionPolicy,
    ReplicationMode,
    UDRConfig,
    UDRNetworkFunction,
)
from repro.ldap import (
    AddRequest,
    DeleteRequest,
    ModifyRequest,
    ResultCode,
    SearchRequest,
    SubscriberSchema,
)
from repro.net import NetworkPartition
from repro.subscriber import SubscriberGenerator

from tests.conftest import build_udr, fe_site_for, run_to_completion


def search_for(profile):
    return SearchRequest(dn=SubscriberSchema.subscriber_dn(
        profile.identities.imsi))


def modify_for(profile, **changes):
    return ModifyRequest(dn=SubscriberSchema.subscriber_dn(
        profile.identities.imsi), changes=dict(changes))


class TestDeploymentBuild:
    def test_structure_matches_config(self, small_udr):
        udr, _ = small_udr
        config = udr.config
        assert len(udr.topology.sites) == config.total_sites
        assert len(udr.elements) == config.total_storage_elements
        assert len(udr.points_of_access) == config.total_sites
        assert len(udr.replica_sets) == config.total_storage_elements

    def test_every_partition_has_geo_dispersed_copies(self, small_udr):
        udr, _ = small_udr
        for replica_set in udr.replica_sets.values():
            sites = {replica_set.element(name).site
                     for name in replica_set.member_names}
            assert len(sites) == udr.config.replication_factor, \
                "each copy of a partition lives at a different site"

    def test_subscriber_base_loaded_consistently(self, small_udr):
        udr, profiles = small_udr
        assert udr.subscribers_loaded == len(profiles)
        profile = profiles[0]
        record = udr.subscriber_record(profile.identities.imsi)
        assert record is not None
        assert record["msisdn"] == profile.identities.msisdn

    def test_home_region_placement_respected(self, small_udr):
        udr, profiles = small_udr
        misplaced = 0
        for profile in profiles:
            locator = next(iter(udr.locators.values()))
            element_name = locator.locate("imsi", profile.identities.imsi)
            element = udr.elements[element_name]
            if element.site.region.name != profile.home_region:
                misplaced += 1
        assert misplaced == 0, \
            "home-region placement stores every profile in its home region"


class TestReads:
    def test_read_by_imsi_returns_profile(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        response = run_to_completion(
            udr, udr.pipeline.execute(search_for(profile),
                                      ClientType.APPLICATION_FE,
                                      fe_site_for(udr, profile)))
        assert response.ok
        assert response.entry["imsi"] == profile.identities.imsi
        assert response.latency > 0

    def test_read_by_msisdn_filter(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[1]
        request = SearchRequest(
            dn=SubscriberSchema.BASE_DN,
            filter_text=f"(msisdn={profile.identities.msisdn})")
        response = run_to_completion(
            udr, udr.pipeline.execute(request, ClientType.APPLICATION_FE,
                                      fe_site_for(udr, profile)))
        assert response.ok
        assert response.entry["imsi"] == profile.identities.imsi

    def test_requested_attributes_filter_entry(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        request = SearchRequest(
            dn=SubscriberSchema.subscriber_dn(profile.identities.imsi),
            attributes=("authKey",))
        response = run_to_completion(
            udr, udr.pipeline.execute(request, ClientType.APPLICATION_FE,
                                      fe_site_for(udr, profile)))
        assert set(response.entry) == {"authKey", "dn"}

    def test_unknown_subscriber_is_no_such_object(self, fresh_udr):
        udr, _ = fresh_udr
        request = SearchRequest(
            dn=SubscriberSchema.subscriber_dn("999999999999999"))
        response = run_to_completion(
            udr, udr.pipeline.execute(request, ClientType.APPLICATION_FE,
                                      udr.topology.sites[0]))
        assert response.result_code is ResultCode.NO_SUCH_OBJECT

    def test_local_read_meets_ten_millisecond_target(self, fresh_udr):
        """Requirement 4: local index-based reads stay under ~10 ms."""
        udr, profiles = fresh_udr
        profile = profiles[0]
        site = fe_site_for(udr, profile)
        for _ in range(5):
            run_to_completion(
                udr, udr.pipeline.execute(search_for(profile),
                                          ClientType.APPLICATION_FE, site))
        recorder = udr.metrics.latency(ClientType.APPLICATION_FE.value)
        assert recorder.mean() < 0.020, \
            "reads served in the subscriber's home region stay fast"

    def test_fe_read_can_be_served_from_slave(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        # Read from a site that is NOT the subscriber's home region: with
        # slave reads enabled the FE may still be served by a nearby copy.
        other_site = next(site for site in udr.topology.sites
                          if site.region.name != profile.home_region)
        response = run_to_completion(
            udr, udr.pipeline.execute(search_for(profile),
                                      ClientType.APPLICATION_FE,
                                      other_site))
        assert response.ok

    def test_provisioning_reads_only_master(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        response = run_to_completion(
            udr, udr.pipeline.execute(search_for(profile),
                                      ClientType.PROVISIONING,
                                      udr.topology.sites[0]))
        assert response.ok
        replica_set = udr.deployment.replica_set_of_element(
            response.served_from)
        assert response.served_from == replica_set.master_element_name


class TestWrites:
    def test_modify_updates_record(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        response = run_to_completion(
            udr, udr.pipeline.execute(modify_for(profile, servingMsc="msc-42"),
                                      ClientType.APPLICATION_FE,
                                      fe_site_for(udr, profile)))
        assert response.ok
        record = udr.subscriber_record(profile.identities.imsi)
        assert record["servingMsc"] == "msc-42"

    def test_add_then_read_roundtrip(self, fresh_udr):
        udr, _ = fresh_udr
        generator = SubscriberGenerator(udr.config.regions, seed=321)
        new_profile = generator.generate_one()
        add = AddRequest(
            dn=SubscriberSchema.subscriber_dn(new_profile.identities.imsi),
            attributes=new_profile.to_record())
        site = udr.topology.sites[0]
        response = run_to_completion(
            udr, udr.pipeline.execute(add, ClientType.PROVISIONING, site))
        assert response.ok
        read = run_to_completion(
            udr, udr.pipeline.execute(search_for(new_profile),
                                      ClientType.APPLICATION_FE, site))
        assert read.ok

    def test_duplicate_add_rejected(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        add = AddRequest(
            dn=SubscriberSchema.subscriber_dn(profile.identities.imsi),
            attributes=profile.to_record())
        response = run_to_completion(
            udr, udr.pipeline.execute(add, ClientType.PROVISIONING,
                                      udr.topology.sites[0]))
        assert response.result_code is ResultCode.ENTRY_ALREADY_EXISTS

    def test_delete_removes_record_and_location(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[2]
        delete = DeleteRequest(
            dn=SubscriberSchema.subscriber_dn(profile.identities.imsi))
        response = run_to_completion(
            udr, udr.pipeline.execute(delete, ClientType.PROVISIONING,
                                      udr.topology.sites[0]))
        assert response.ok
        read = run_to_completion(
            udr, udr.pipeline.execute(search_for(profile),
                                      ClientType.APPLICATION_FE,
                                      fe_site_for(udr, profile)))
        assert read.result_code is ResultCode.NO_SUCH_OBJECT

    def test_modify_unknown_subscriber_fails(self, fresh_udr):
        udr, _ = fresh_udr
        request = ModifyRequest(
            dn=SubscriberSchema.subscriber_dn("999999999999999"),
            changes={"servingMsc": "x"})
        response = run_to_completion(
            udr, udr.pipeline.execute(request, ClientType.PROVISIONING,
                                      udr.topology.sites[0]))
        assert response.result_code is ResultCode.NO_SUCH_OBJECT

    def test_writes_replicate_asynchronously_to_slaves(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        run_to_completion(
            udr, udr.pipeline.execute(
                modify_for(profile, servingMsc="msc-repl"),
                ClientType.APPLICATION_FE, fe_site_for(udr, profile)))
        udr.sim.run_for(2.0)  # let the replication channels catch up
        locator = next(iter(udr.locators.values()))
        element_name = locator.locate("imsi", profile.identities.imsi)
        replica_set = udr.deployment.replica_set_of_element(element_name)
        key = profile.key
        for slave in replica_set.slave_names():
            value = replica_set.copy_on(slave).store.get(key)
            assert value is not None and value["servingMsc"] == "msc-repl"


class TestPartitionBehaviour:
    def isolate_master_region(self, udr, profile):
        """Partition the subscriber's home region away from the rest."""
        region = udr.topology.region(profile.home_region)
        partition = NetworkPartition.splitting_regions(udr.topology, region)
        udr.network.apply_partition(partition)
        return partition

    def other_region_site(self, udr, profile):
        return next(site for site in udr.topology.sites
                    if site.region.name != profile.home_region)

    def test_write_from_wrong_side_fails_under_pc(self, fresh_udr):
        """Section 4.1: provisioning writes fail when the master is cut off."""
        udr, profiles = fresh_udr
        profile = profiles[0]
        self.isolate_master_region(udr, profile)
        response = run_to_completion(
            udr, udr.pipeline.execute(modify_for(profile, svcBarPremium=True),
                                      ClientType.PROVISIONING,
                                      self.other_region_site(udr, profile)))
        assert response.result_code is ResultCode.UNAVAILABLE

    def test_read_from_wrong_side_served_by_slave(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        self.isolate_master_region(udr, profile)
        response = run_to_completion(
            udr, udr.pipeline.execute(search_for(profile),
                                      ClientType.APPLICATION_FE,
                                      self.other_region_site(udr, profile)))
        # With replication factor 2 the slave copy may or may not be on the
        # reachable side; when it is, the FE read succeeds despite the
        # partition.  Assert the dichotomy the paper describes.
        if response.ok:
            locator = next(iter(udr.locators.values()))
            owner = locator.locate("imsi", profile.identities.imsi)
            replica_set = udr.deployment.replica_set_of_element(owner)
            assert response.served_from != replica_set.master_element_name, \
                "the read was served by a slave copy, not the cut-off master"
        else:
            assert response.result_code is ResultCode.UNAVAILABLE

    def test_write_succeeds_under_multimaster(self):
        config = UDRConfig(
            partition_policy=PartitionPolicy.PREFER_AVAILABILITY, seed=7)
        udr, profiles = build_udr(config=config)
        profile = profiles[0]
        self.isolate_master_region(udr, profile)
        response = run_to_completion(
            udr, udr.pipeline.execute(modify_for(profile, svcBarPremium=True),
                                      ClientType.PROVISIONING,
                                      self.other_region_site(udr, profile)))
        # Succeeds whenever any copy is reachable on the client's side.
        if response.ok:
            coordinator = udr.coordinators[
                udr.deployment.primary_partition_of_element[
                    next(iter(udr.locators.values())).locate(
                        "imsi", profile.identities.imsi)]]
            assert coordinator.stats.degraded_writes >= 0
        else:
            assert response.result_code is ResultCode.UNAVAILABLE

    def test_healing_partition_restores_writes(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        partition = self.isolate_master_region(udr, profile)
        udr.network.heal_partition(partition)
        response = run_to_completion(
            udr, udr.pipeline.execute(modify_for(profile, svcBarPremium=True),
                                      ClientType.PROVISIONING,
                                      self.other_region_site(udr, profile)))
        assert response.ok


class TestElementFailures:
    def test_crashed_master_with_failover_keeps_serving(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        locator = next(iter(udr.locators.values()))
        element_name = locator.locate("imsi", profile.identities.imsi)
        udr.crash_element(element_name)
        promotions = udr.fail_over(element_name)
        assert promotions, "a slave copy was promoted"
        response = run_to_completion(
            udr, udr.pipeline.execute(search_for(profile),
                                      ClientType.APPLICATION_FE,
                                      fe_site_for(udr, profile)))
        assert response.ok

    def test_write_fails_when_master_down_without_failover(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        locator = next(iter(udr.locators.values()))
        element_name = locator.locate("imsi", profile.identities.imsi)
        udr.crash_element(element_name)
        response = run_to_completion(
            udr, udr.pipeline.execute(modify_for(profile, svcBarPremium=True),
                                      ClientType.PROVISIONING,
                                      udr.topology.sites[0]))
        assert response.result_code is ResultCode.UNAVAILABLE

    def test_recovered_element_serves_again(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        locator = next(iter(udr.locators.values()))
        element_name = locator.locate("imsi", profile.identities.imsi)
        udr.crash_element(element_name)
        udr.recover_element(element_name)
        response = run_to_completion(
            udr, udr.pipeline.execute(search_for(profile),
                                      ClientType.APPLICATION_FE,
                                      fe_site_for(udr, profile)))
        assert response.ok


class TestAlternativeLocationModes:
    def test_cached_locator_mode_serves_reads(self):
        config = UDRConfig(location_mode=LocationMode.CACHED_MAPS, seed=7)
        udr, profiles = build_udr(config=config, subscribers=20)
        profile = profiles[0]
        response = run_to_completion(
            udr, udr.pipeline.execute(search_for(profile),
                                      ClientType.APPLICATION_FE,
                                      fe_site_for(udr, profile)))
        assert response.ok

    def test_consistent_hash_mode_serves_reads(self):
        config = UDRConfig(location_mode=LocationMode.CONSISTENT_HASH, seed=7)
        udr, profiles = build_udr(config=config, subscribers=20)
        profile = profiles[0]
        response = run_to_completion(
            udr, udr.pipeline.execute(search_for(profile),
                                      ClientType.APPLICATION_FE,
                                      fe_site_for(udr, profile)))
        assert response.ok

    def test_quorum_mode_write_pays_latency(self):
        async_udr, async_profiles = build_udr(
            config=UDRConfig(seed=7), subscribers=20)
        quorum_udr, quorum_profiles = build_udr(
            config=UDRConfig(replication_mode=ReplicationMode.QUORUM, seed=7),
            subscribers=20)
        responses = {}
        for label, (udr, profiles) in {
                "async": (async_udr, async_profiles),
                "quorum": (quorum_udr, quorum_profiles)}.items():
            profile = profiles[0]
            responses[label] = run_to_completion(
                udr, udr.pipeline.execute(
                    modify_for(profile, svcBarPremium=True),
                    ClientType.PROVISIONING, fe_site_for(udr, profile)))
            assert responses[label].ok
        assert responses["quorum"].latency > responses["async"].latency


class TestScaleOut:
    def test_new_cluster_locator_syncs_before_serving(self, fresh_udr):
        udr, profiles = fresh_udr
        poa, sync_process = udr.scale_out_new_cluster("spain")
        assert sync_process is not None
        assert not poa.can_serve(), "PoA unavailable while maps sync"
        udr.sim.run(until=udr.sim.now + 60.0)
        assert poa.can_serve()
        assert poa.locator.locate(
            "imsi", profiles[0].identities.imsi) is not None

    def test_scale_out_with_hash_locator_is_immediate(self):
        config = UDRConfig(location_mode=LocationMode.CONSISTENT_HASH, seed=7)
        udr, _ = build_udr(config=config, subscribers=10)
        poa, sync_process = udr.scale_out_new_cluster("sweden")
        assert sync_process is None
        assert poa.can_serve()
