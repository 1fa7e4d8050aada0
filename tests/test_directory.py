"""Unit tests for the data location stage (maps, hashing, placement, sync)."""

import math

import pytest

from repro.directory import (
    CachedLocator,
    ConsistentHashLocator,
    ConsistentHashRing,
    HomeRegionPlacement,
    IdentityLocationMap,
    IdentityType,
    LocatorSyncInProgress,
    MapSynchroniser,
    MultiIndexDirectory,
    ProvisionedLocator,
    RandomPlacement,
    RoundRobinPlacement,
    UnknownIdentity,
)
from repro.directory.placement import PlacementCandidate, PlacementPolicy
from repro.net import Network, make_multinational_topology
from repro.sim import Simulation


class FakeSubscriber:
    def __init__(self, key="sub-1", home_region="spain"):
        self.key = key
        self.home_region = home_region


class TestIdentityLocationMap:
    def test_insert_and_locate(self):
        index = IdentityLocationMap(IdentityType.IMSI)
        index.insert("214070000000001", "se-0")
        assert index.locate("214070000000001") == "se-0"
        assert len(index) == 1

    def test_update_existing_entry(self):
        index = IdentityLocationMap(IdentityType.IMSI)
        index.insert("a", "se-0")
        index.insert("a", "se-1")
        assert index.locate("a") == "se-1"
        assert len(index) == 1

    def test_unknown_identity_raises(self):
        index = IdentityLocationMap(IdentityType.IMSI)
        with pytest.raises(UnknownIdentity):
            index.locate("missing")

    def test_remove_entry(self):
        index = IdentityLocationMap(IdentityType.IMSI)
        index.insert("a", "se-0")
        index.remove("a")
        assert "a" not in index
        with pytest.raises(UnknownIdentity):
            index.remove("a")

    def test_lookup_cost_grows_logarithmically(self):
        small = IdentityLocationMap(IdentityType.IMSI)
        large = IdentityLocationMap(IdentityType.IMSI)
        small.bulk_load((f"{i:010d}", "se-0") for i in range(100))
        large.bulk_load((f"{i:010d}", "se-0") for i in range(100_000))
        for i in range(0, 100, 7):
            small.locate(f"{i:010d}")
        for i in range(0, 100_000, 7919):
            large.locate(f"{i:010d}")
        ratio = large.average_lookup_cost() / small.average_lookup_cost()
        expected = math.log2(100_000) / math.log2(100)
        assert ratio == pytest.approx(expected, rel=0.25)

    def test_bulk_load_and_entries_sorted(self):
        index = IdentityLocationMap(IdentityType.MSISDN)
        index.bulk_load([("3", "c"), ("1", "a"), ("2", "b")])
        assert [identity for identity, _ in index.entries()] == ["1", "2", "3"]

    def test_counters_reset(self):
        index = IdentityLocationMap(IdentityType.IMSI)
        index.insert("a", "se-0")
        index.locate("a")
        index.reset_counters()
        assert index.lookups == 0
        assert index.average_lookup_cost() == 0.0


class TestMultiIndexDirectory:
    def test_register_creates_entry_per_identity(self):
        directory = MultiIndexDirectory()
        written = directory.register(
            {IdentityType.IMSI: "21407", IdentityType.MSISDN: "34600",
             IdentityType.IMPU: "sip:alice@ims"}, "se-2")
        assert written == 3
        assert directory.resolve(IdentityType.MSISDN, "34600") == "se-2"
        assert directory.resolve(IdentityType.IMPU, "sip:alice@ims") == "se-2"

    def test_unknown_identity_type_ignored_on_register(self):
        directory = MultiIndexDirectory([IdentityType.IMSI])
        written = directory.register({IdentityType.IMSI: "1", "other": "x"}, "se")
        assert written == 1

    def test_deregister_removes_entries(self):
        directory = MultiIndexDirectory()
        identities = {IdentityType.IMSI: "1", IdentityType.MSISDN: "2"}
        directory.register(identities, "se-0")
        removed = directory.deregister(identities)
        assert removed == 2
        assert directory.total_entries() == 0

    def test_relocate_changes_location(self):
        directory = MultiIndexDirectory()
        identities = {IdentityType.IMSI: "1"}
        directory.register(identities, "se-0")
        directory.relocate(identities, "se-5")
        assert directory.resolve(IdentityType.IMSI, "1") == "se-5"

    def test_all_entries_roundtrip_via_bulk_load(self):
        source = MultiIndexDirectory()
        source.register({IdentityType.IMSI: "1", IdentityType.MSISDN: "2"}, "se-0")
        target = MultiIndexDirectory()
        target.bulk_load(source.all_entries())
        assert target.resolve(IdentityType.MSISDN, "2") == "se-0"

    def test_empty_type_list_rejected(self):
        with pytest.raises(ValueError):
            MultiIndexDirectory([])


class TestConsistentHashRing:
    def test_lookup_is_deterministic(self):
        ring = ConsistentHashRing(["se-0", "se-1", "se-2"])
        assert ring.locate("imsi:1") == ring.locate("imsi:1")

    def test_keys_spread_over_locations(self):
        ring = ConsistentHashRing([f"se-{i}" for i in range(4)],
                                  virtual_nodes=128)
        counts = ring.distribution([f"imsi:{i}" for i in range(2000)])
        assert all(count > 0 for count in counts.values())
        assert max(counts.values()) < 4 * min(counts.values())

    def test_removing_location_moves_only_its_keys(self):
        ring = ConsistentHashRing(["se-0", "se-1", "se-2"], virtual_nodes=64)
        keys = [f"imsi:{i}" for i in range(500)]
        before = {key: ring.locate(key) for key in keys}
        ring.remove_location("se-2")
        after = {key: ring.locate(key) for key in keys}
        moved = [key for key in keys if before[key] != after[key]]
        assert all(before[key] == "se-2" for key in moved), \
            "only keys owned by the removed node may move"

    def test_lookup_cost_independent_of_key_count(self):
        ring = ConsistentHashRing(["se-0", "se-1"], virtual_nodes=64)
        for i in range(10):
            ring.locate(f"imsi:{i}")
        cost_small = ring.average_lookup_cost()
        for i in range(5000):
            ring.locate(f"imsi:{i}")
        assert ring.average_lookup_cost() == pytest.approx(cost_small)

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            ConsistentHashRing([]).locate("x")
        with pytest.raises(KeyError):
            ConsistentHashRing(["a"]).remove_location("b")
        with pytest.raises(ValueError):
            ConsistentHashRing(virtual_nodes=0)


class TestPlacementPolicies:
    def candidates(self):
        return [
            PlacementCandidate("se-spain", "spain"),
            PlacementCandidate("se-sweden", "sweden"),
            PlacementCandidate("se-germany", "germany"),
        ]

    def test_home_region_placement_prefers_home(self):
        policy = HomeRegionPlacement()
        chosen = policy.choose(FakeSubscriber(home_region="sweden"),
                               self.candidates())
        assert chosen == "se-sweden"
        assert policy.local_placements == 1

    def test_home_region_falls_back_when_region_absent(self):
        policy = HomeRegionPlacement()
        chosen = policy.choose(FakeSubscriber(home_region="france"),
                               self.candidates())
        assert chosen in {"se-spain", "se-sweden", "se-germany"}
        assert policy.fallback_placements == 1

    def test_home_region_skips_full_elements(self):
        policy = HomeRegionPlacement()
        candidates = [
            PlacementCandidate("se-spain", "spain", has_capacity=False),
            PlacementCandidate("se-sweden", "sweden"),
        ]
        chosen = policy.choose(FakeSubscriber(home_region="spain"), candidates)
        assert chosen == "se-sweden"

    def test_round_robin_cycles(self):
        policy = RoundRobinPlacement()
        subscriber = FakeSubscriber()
        picks = [policy.choose(subscriber, self.candidates()) for _ in range(6)]
        assert picks[:3] == ["se-spain", "se-sweden", "se-germany"]
        assert picks[:3] == picks[3:]

    def test_random_placement_uses_rng(self):
        sim = Simulation(seed=3)
        policy = RandomPlacement(sim.rng("placement"))
        picks = {policy.choose(FakeSubscriber(), self.candidates())
                 for _ in range(50)}
        assert len(picks) > 1

    def test_no_capacity_anywhere_raises(self):
        policy = RoundRobinPlacement()
        with pytest.raises(ValueError):
            policy.choose(FakeSubscriber(),
                          [PlacementCandidate("se", "spain", has_capacity=False)])

    def test_abstract_policy_rejects_use(self):
        with pytest.raises(NotImplementedError):
            PlacementPolicy().choose(FakeSubscriber(), self.candidates())


class TestProvisionedLocator:
    def test_register_then_locate(self):
        locator = ProvisionedLocator()
        locator.register({IdentityType.IMSI: "1", IdentityType.MSISDN: "34"},
                         "se-0")
        assert locator.locate(IdentityType.IMSI, "1") == "se-0"
        assert locator.stats.hits == 1

    def test_miss_counts_and_raises(self):
        locator = ProvisionedLocator()
        with pytest.raises(UnknownIdentity):
            locator.locate(IdentityType.IMSI, "absent")
        assert locator.stats.misses == 1

    def test_lookups_blocked_while_syncing(self):
        locator = ProvisionedLocator()
        locator.register({IdentityType.IMSI: "1"}, "se-0")
        locator.begin_sync(total_entries=10)
        with pytest.raises(LocatorSyncInProgress):
            locator.locate(IdentityType.IMSI, "1")
        locator.complete_sync()
        assert locator.locate(IdentityType.IMSI, "1") == "se-0"

    def test_export_import_entries(self):
        source = ProvisionedLocator()
        source.register({IdentityType.IMSI: "1"}, "se-3")
        target = ProvisionedLocator()
        target.import_entries(source.export_entries())
        assert target.locate(IdentityType.IMSI, "1") == "se-3"


class TestCachedLocator:
    def make_locator(self, mapping, fanout=4):
        return CachedLocator(
            authority=lambda itype, value: mapping.get((itype, value)),
            fanout=fanout)

    def test_miss_then_hit(self):
        locator = self.make_locator({(IdentityType.IMSI, "1"): "se-2"})
        assert locator.locate(IdentityType.IMSI, "1") == "se-2"
        assert locator.stats.misses == 1
        assert locator.locate(IdentityType.IMSI, "1") == "se-2"
        assert locator.stats.hits == 1
        assert locator.stats.broadcasts == 1

    def test_miss_charges_broadcast_fanout(self):
        locator = self.make_locator({(IdentityType.IMSI, "1"): "se-2"}, fanout=16)
        locator.locate(IdentityType.IMSI, "1")
        assert locator.stats.elements_queried_on_miss == 16

    def test_unknown_identity_raises(self):
        locator = self.make_locator({})
        with pytest.raises(UnknownIdentity):
            locator.locate(IdentityType.IMSI, "none")

    def test_registration_prewarms_cache(self):
        locator = self.make_locator({})
        locator.register({IdentityType.IMSI: "1"}, "se-9")
        assert locator.locate(IdentityType.IMSI, "1") == "se-9"
        assert locator.stats.broadcasts == 0

    def test_invalidate_forces_new_broadcast(self):
        locator = self.make_locator({(IdentityType.IMSI, "1"): "se-2"})
        locator.locate(IdentityType.IMSI, "1")
        locator.invalidate({IdentityType.IMSI: "1"})
        locator.locate(IdentityType.IMSI, "1")
        assert locator.stats.broadcasts == 2

    def test_invalid_fanout_rejected(self):
        with pytest.raises(ValueError):
            CachedLocator(authority=lambda t, v: None, fanout=0)


class TestConsistentHashLocator:
    def test_locate_never_misses(self):
        locator = ConsistentHashLocator(["se-0", "se-1"])
        assert locator.locate(IdentityType.IMSI, "1") in {"se-0", "se-1"}

    def test_identities_of_same_subscriber_hash_apart(self):
        """The paper's objection: each identity needs its own data replica."""
        locator = ConsistentHashLocator([f"se-{i}" for i in range(8)])
        placements = locator.placement_for(
            {IdentityType.IMSI: "214070000000001",
             IdentityType.MSISDN: "34600000001",
             IdentityType.IMPU: "sip:alice@ims.example"})
        assert len(set(placements.values())) > 1

    def test_storage_overhead_equals_identity_count(self):
        locator = ConsistentHashLocator(["se-0"],
                                        identity_types=[IdentityType.IMSI,
                                                        IdentityType.MSISDN])
        assert locator.storage_overhead_factor == 2

    def test_selective_placement_unsupported(self):
        locator = ConsistentHashLocator(["se-0"])
        assert locator.supports_selective_placement is False


class TestMapSynchroniser:
    def test_estimate_scales_with_entries(self):
        synchroniser = MapSynchroniser()
        small = synchroniser.estimate(10_000)
        large = synchroniser.estimate(10_000_000)
        assert large.duration > small.duration
        assert large.bytes_transferred == 1000 * small.bytes_transferred

    def test_estimate_rejects_negative(self):
        with pytest.raises(ValueError):
            MapSynchroniser().estimate(-1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MapSynchroniser(entry_bytes=0)
        with pytest.raises(ValueError):
            MapSynchroniser(chunk_entries=0)

    def test_simulated_sync_blocks_target_until_done(self):
        sim = Simulation(seed=5)
        topology = make_multinational_topology()
        network = Network(sim, topology)
        source = ProvisionedLocator()
        for i in range(1000):
            source.register({IdentityType.IMSI: f"{i:05d}"}, "se-0")
        target = ProvisionedLocator()
        synchroniser = MapSynchroniser(chunk_entries=100)

        def run_sync(sim):
            yield from synchroniser.sync(
                sim, network, topology.site("spain-dc1"),
                topology.site("sweden-dc1"), source, target)

        process = sim.process(run_sync(sim))
        sim.run(until=0.001)
        assert target.syncing
        with pytest.raises(LocatorSyncInProgress):
            target.locate(IdentityType.IMSI, "00001")
        sim.run()
        assert process.ok
        assert not target.syncing
        assert target.locate(IdentityType.IMSI, "00001") == "se-0"
        assert sim.now > 0, "the sync took simulated time"
