"""Unit tests for replica sets and the replication modes."""

import pytest

from repro.cluster.saf import AvailabilityManager
from repro.net import NetworkPartition
from repro.replication import (
    AsyncReplicationChannel,
    DualInSequenceReplicator,
    MasterUnreachable,
    MultiMasterCoordinator,
    NotEnoughReplicas,
    QuorumReplicator,
    ReplicationError,
    ReplicationMux,
)
from repro.storage import DataPartition, ReplicaRole, StorageElement

from tests.helpers import (
    build_replicated_partition,
    flip_slave_record,
    master_write,
    replicate,
    run_process,
)


class TestReplicaSet:
    def test_master_and_slaves_identified(self):
        _, _, _, elements, replica_set = build_replicated_partition()
        assert replica_set.master_element_name == "se-0"
        assert replica_set.slave_names() == ["se-1", "se-2"]
        assert replica_set.replication_factor == 3

    def test_duplicate_member_rejected(self):
        _, _, _, elements, replica_set = build_replicated_partition()
        with pytest.raises(ReplicationError):
            replica_set.add_member(elements[0], ReplicaRole.SECONDARY)

    def test_second_master_rejected(self):
        _, _, _, _, replica_set = build_replicated_partition()
        extra = StorageElement("se-9")
        with pytest.raises(ReplicationError):
            replica_set.add_member(extra, ReplicaRole.PRIMARY)

    def test_failover_promotes_most_up_to_date_slave(self):
        _, _, _, elements, replica_set = build_replicated_partition()
        record = master_write(replica_set, "sub-1", {"v": 1})
        # Only se-2 has applied the write.
        replica_set.copy_on("se-2").transactions.apply_log_record(record)
        elements[0].crash()
        new_master = replica_set.fail_over()
        assert new_master == "se-2"
        assert replica_set.master_copy.is_primary
        assert replica_set.failovers == 1

    def test_failover_with_no_candidates_fails(self):
        _, _, _, elements, replica_set = build_replicated_partition()
        for element in elements:
            element.crash()
        with pytest.raises(ReplicationError):
            replica_set.fail_over()

    def test_set_master_switches_roles(self):
        _, _, _, _, replica_set = build_replicated_partition()
        replica_set.set_master("se-1")
        assert replica_set.master_element_name == "se-1"
        assert not replica_set.copy_on("se-0").is_primary

    def test_master_available_reflects_element_state(self):
        _, _, _, elements, replica_set = build_replicated_partition()
        assert replica_set.master_available()
        elements[0].crash()
        assert not replica_set.master_available()


class TestAsyncReplication:
    def test_writes_eventually_reach_slaves(self):
        sim, network, _, _, replica_set = build_replicated_partition()
        channels = [AsyncReplicationChannel(sim, replica_set, slave)
                    for slave in replica_set.slave_names()]
        for value in range(3):
            master_write(replica_set, "sub-1", {"v": value},
                         timestamp=sim.now)
        replicate(sim, network, channels, until=5.0)
        for slave in replica_set.slave_names():
            assert replica_set.copy_on(slave).store.read_committed("sub-1") == \
                {"v": 2}

    def test_serialisation_order_preserved_on_slave(self):
        sim, network, _, _, replica_set = build_replicated_partition()
        channel = AsyncReplicationChannel(sim, replica_set, "se-1")
        for value in range(5):
            master_write(replica_set, f"sub-{value % 2}", {"v": value})
        replicate(sim, network, [channel], until=2.0)
        master_versions = [
            v.commit_seq
            for v in replica_set.master_copy.store.versions("sub-0")]
        slave_versions = [
            v.commit_seq
            for v in replica_set.copy_on("se-1").store.versions("sub-0")]
        assert master_versions == slave_versions

    def test_lag_grows_during_partition_and_recovers(self):
        sim, network, topology, elements, replica_set = \
            build_replicated_partition()
        channel = AsyncReplicationChannel(sim, replica_set, "se-1")
        partition = NetworkPartition.isolating(elements[0].site)
        network.apply_partition(partition)
        master_write(replica_set, "sub-1", {"v": 1}, timestamp=sim.now)
        replicate(sim, network, [channel], until=2.0)
        assert channel.lag().records == 1
        assert channel.stalled_rounds > 0
        network.heal_partition(partition)
        sim.run(until=4.0)
        assert channel.lag().in_sync
        assert replica_set.copy_on("se-1").store.contains("sub-1")

    def test_channel_skips_records_slave_already_has(self):
        sim, network, _, _, replica_set = build_replicated_partition()
        record = master_write(replica_set, "sub-1", {"v": 1})
        replica_set.copy_on("se-1").transactions.apply_log_record(record)
        channel = AsyncReplicationChannel(sim, replica_set, "se-1")
        mux = replicate(sim, network, [channel])
        assert channel.records_shipped == 0
        assert mux.shipments == 0
        assert len(replica_set.copy_on("se-1").store.versions("sub-1")) == 1

    def test_invalid_channel_parameters_rejected(self):
        sim, network, _, _, replica_set = build_replicated_partition()
        with pytest.raises(ValueError):
            AsyncReplicationChannel(sim, replica_set, "se-1", batch_limit=0)

    def test_stalls_when_slave_element_down(self):
        sim, network, _, elements, replica_set = build_replicated_partition()
        elements[1].crash()
        master_write(replica_set, "sub-1", {"v": 1})
        channel = AsyncReplicationChannel(sim, replica_set, "se-1")
        mux = replicate(sim, network, [channel])
        assert mux.wakeups == 1, "one round; the stall waits for recovery"
        assert channel.records_shipped == 0
        assert channel.stalled_rounds == 1

    def test_pending_records_and_apply_primitives(self):
        """The mux-facing primitives: pending excludes already-applied
        records, apply advances the cursor, and apply is idempotent."""
        sim, network, _, _, replica_set = build_replicated_partition()
        channel = AsyncReplicationChannel(sim, replica_set, "se-1")
        first = master_write(replica_set, "sub-1", {"v": 1})
        second = master_write(replica_set, "sub-2", {"v": 2})
        assert channel.has_backlog()
        master_name, pending = channel.pending_records()
        assert master_name == "se-0"
        assert [r.lsn for r in pending] == [first.lsn, second.lsn]
        assert channel.apply(master_name, pending) == 2
        assert not channel.has_backlog()
        assert channel.pending_records() == ("se-0", [])
        # Idempotent: re-applying the same shipment installs nothing.
        assert channel.apply(master_name, pending) == 0
        versions = replica_set.copy_on("se-1").store.versions("sub-1")
        assert len(versions) == 1

    def test_pending_skips_records_slave_already_applied(self):
        sim, network, _, _, replica_set = build_replicated_partition()
        record = master_write(replica_set, "sub-1", {"v": 1})
        replica_set.copy_on("se-1").transactions.apply_log_record(record)
        channel = AsyncReplicationChannel(sim, replica_set, "se-1")
        _master, pending = channel.pending_records()
        assert pending == []
        assert not channel.has_backlog(), "the cursor advanced past it"

    def test_byte_flipped_slave_is_invisible_to_replication(self):
        """Silent corruption does not re-open the shipping window: the
        flipped version keeps its commit_seq, so the channel sees nothing
        to ship -- which is exactly why the CDC reconciler exists."""
        sim, network, _, _, replica_set = build_replicated_partition()
        record = master_write(replica_set, "sub-1", {"v": 1, "msc": "a"})
        replica_set.copy_on("se-1").transactions.apply_log_record(record)
        flip_slave_record(replica_set, "se-1", "sub-1", seed=5)
        channel = AsyncReplicationChannel(sim, replica_set, "se-1")
        assert channel.pending_records() == ("se-0", [])
        assert not channel.has_backlog(), "the cursor advanced past it"
        assert replica_set.copy_on("se-1").store.read_committed("sub-1") != \
            replica_set.master_copy.store.read_committed("sub-1")

    def test_inactive_when_slave_is_master(self):
        sim, network, _, _, replica_set = build_replicated_partition()
        channel = AsyncReplicationChannel(sim, replica_set, "se-1")
        replica_set.set_master("se-1")
        assert channel.endpoints() is None
        assert channel.link_sites() is None
        assert not channel.has_backlog()
        assert channel.pending_records() == (None, [])


class TestReplicationMux:
    def build_two_partition_link(self, seed=1):
        """Two partitions whose masters live at site 0 and slaves at site 1:
        both channels ship over the same (site, site) link."""
        sim, network, topology, elements, replica_set = \
            build_replicated_partition(seed=seed, num_elements=2,
                                       replication_factor=2)
        partition_b = DataPartition(1)
        from repro.replication import ReplicaSet
        replica_set_b = ReplicaSet(partition_b)
        replica_set_b.add_member(elements[0], ReplicaRole.PRIMARY)
        replica_set_b.add_member(elements[1], ReplicaRole.SECONDARY)
        channels = [
            AsyncReplicationChannel(sim, replica_set, "se-1"),
            AsyncReplicationChannel(sim, replica_set_b, "se-1"),
        ]
        mux = ReplicationMux(sim, network, AvailabilityManager(sim),
                             ship_linger=0.05)
        for channel in channels:
            mux.attach(channel)
        return sim, network, (replica_set, replica_set_b), channels, mux

    def test_idle_mux_schedules_no_events(self):
        sim, network, _sets, _channels, mux = self.build_two_partition_link()
        mux.start()
        sim.run(until=5.0)
        assert mux.wakeups == 0
        assert network.stats.total_messages() == 0

    def test_two_partitions_share_one_transfer(self):
        sim, network, (set_a, set_b), channels, mux = \
            self.build_two_partition_link()
        mux.start()
        master_write(set_a, "a-1", {"v": 1}, timestamp=sim.now)
        master_write(set_b, "b-1", {"v": 2}, timestamp=sim.now)
        sim.run(until=0.2)
        assert network.stats.total_messages() == 1, \
            "both partitions' records ride one shipment over the link"
        assert mux.wakeups == 1
        assert set_a.copy_on("se-1").store.contains("a-1")
        assert set_b.copy_on("se-1").store.contains("b-1")

    def test_commits_ship_on_the_interval_grid(self):
        """Freshness contract: the mux ships at the same instants the
        polling loops would have ticked (multiples of the interval)."""
        sim, network, (set_a, _b), channels, mux = \
            self.build_two_partition_link()
        mux.start()
        sim.run(until=0.12)  # between grid points
        master_write(set_a, "a-1", {"v": 1}, timestamp=sim.now)
        sim.run(until=0.149)
        assert channels[0].records_shipped == 0, "not before the grid point"
        sim.run(until=0.2)
        assert channels[0].records_shipped == 1

    def test_stall_retries_until_partition_heals(self):
        sim, network, (set_a, _b), channels, mux = \
            self.build_two_partition_link()
        mux.start()
        partition = NetworkPartition.isolating(set_a.element("se-0").site)
        network.apply_partition(partition)
        master_write(set_a, "a-1", {"v": 1}, timestamp=sim.now)
        sim.run(until=0.4)
        assert channels[0].stalled_rounds > 0
        assert not set_a.copy_on("se-1").store.contains("a-1")
        network.heal_partition(partition)
        sim.run(until=0.6)
        assert set_a.copy_on("se-1").store.contains("a-1")
        assert channels[0].lag().in_sync

    def test_stop_disarms_pending_rounds(self):
        sim, network, (set_a, _b), channels, mux = \
            self.build_two_partition_link()
        mux.start()
        master_write(set_a, "a-1", {"v": 1}, timestamp=sim.now)
        mux.stop()
        sim.run(until=1.0)
        assert mux.wakeups == 0
        assert network.stats.total_messages() == 0

    def test_rebind_follows_a_new_master(self):
        """After a promotion the mux listens on the new master's log; the
        promoted element's own channel goes inactive (it *is* the master)
        and nothing ships to it twice."""
        sim, network, (set_a, _b), channels, mux = \
            self.build_two_partition_link()
        mux.start()
        record = master_write(set_a, "a-1", {"v": 1}, timestamp=sim.now)
        sim.run(until=0.2)  # shipped to se-1
        set_a.set_master("se-1")
        mux.rebind()
        # Commits on the new master must not wake anything: the only other
        # member (se-0) has no channel, and se-1's channel is now inactive.
        wakeups_before = mux.wakeups
        tx = set_a.copy_on("se-1").transactions.begin()
        tx.write("a-2", {"v": 2})
        tx.commit(timestamp=sim.now)
        sim.run(until=0.5)
        assert mux.wakeups == wakeups_before
        versions = set_a.copy_on("se-1").store.versions("a-1")
        assert len(versions) == 1, "no duplicate apply after re-binding"


class TestDualInSequence:
    def test_commit_reaches_two_replicas(self):
        sim, network, _, _, replica_set = build_replicated_partition()
        record = master_write(replica_set, "sub-1", {"v": 1})
        replicator = DualInSequenceReplicator(sim, network, replica_set)
        outcome = run_process(sim, replicator.replicate_commit(record))
        assert outcome.fully_replicated
        assert outcome.synchronous_latency > 0
        slaves_with_data = [
            name for name in replica_set.slave_names()
            if replica_set.copy_on(name).store.contains("sub-1")]
        assert len(slaves_with_data) == 1, "dual-in-sequence touches one slave"

    def test_degraded_commit_when_all_slaves_unreachable(self):
        sim, network, _, elements, replica_set = build_replicated_partition()
        network.apply_partition(
            NetworkPartition.isolating(elements[0].site))
        record = master_write(replica_set, "sub-1", {"v": 1})
        replicator = DualInSequenceReplicator(sim, network, replica_set,
                                              accept_single_replica=True)
        outcome = run_process(sim, replicator.replicate_commit(record))
        assert outcome.degraded
        assert outcome.replicas_updated == 1
        assert replicator.degraded_commits == 1

    def test_strict_mode_raises_when_unreplicated(self):
        sim, network, _, elements, replica_set = build_replicated_partition()
        for element in elements[1:]:
            element.crash()
        record = master_write(replica_set, "sub-1", {"v": 1})
        replicator = DualInSequenceReplicator(sim, network, replica_set,
                                              accept_single_replica=False)
        with pytest.raises(NotEnoughReplicas):
            run_process(sim, replicator.replicate_commit(record))


class TestQuorumReplication:
    def test_quorum_of_two_acks_master_plus_one_slave(self):
        sim, network, _, _, replica_set = build_replicated_partition()
        record = master_write(replica_set, "sub-1", {"v": 1})
        replicator = QuorumReplicator(sim, network, replica_set, write_quorum=2)
        write = run_process(sim, replicator.replicate_commit(record))
        assert write.satisfied
        assert write.acks >= 2

    def test_full_quorum_reaches_every_slave(self):
        sim, network, _, _, replica_set = build_replicated_partition()
        record = master_write(replica_set, "sub-1", {"v": 1})
        replicator = QuorumReplicator(sim, network, replica_set, write_quorum=3)
        write = run_process(sim, replicator.replicate_commit(record))
        assert write.acks == 3
        for slave in replica_set.slave_names():
            assert replica_set.copy_on(slave).store.contains("sub-1")

    def test_quorum_fails_when_not_enough_replicas_reachable(self):
        sim, network, _, elements, replica_set = build_replicated_partition()
        for element in elements[1:]:
            element.crash()
        record = master_write(replica_set, "sub-1", {"v": 1})
        replicator = QuorumReplicator(sim, network, replica_set, write_quorum=2)
        with pytest.raises(NotEnoughReplicas):
            run_process(sim, replicator.replicate_commit(record))
        assert replicator.failed_commits == 1

    def test_quorum_latency_exceeds_async(self):
        """The quorum pays a backbone round trip that async commits skip."""
        sim, network, _, _, replica_set = build_replicated_partition()
        record = master_write(replica_set, "sub-1", {"v": 1})
        replicator = QuorumReplicator(sim, network, replica_set, write_quorum=2)
        start = sim.now
        run_process(sim, replicator.replicate_commit(record))
        assert sim.now - start > 0.001, "at least one backbone RTT"

    def test_write_quorum_validation(self):
        sim, network, _, _, replica_set = build_replicated_partition()
        with pytest.raises(ValueError):
            QuorumReplicator(sim, network, replica_set, write_quorum=0)

    def test_quorum_of_one_is_immediate(self):
        sim, network, _, _, replica_set = build_replicated_partition()
        record = master_write(replica_set, "sub-1", {"v": 1})
        replicator = QuorumReplicator(sim, network, replica_set, write_quorum=1)
        write = run_process(sim, replicator.replicate_commit(record))
        assert write.satisfied
        assert write.acks == 1


class TestMultiMaster:
    def test_master_preferred_when_reachable(self):
        _, _, _, _, replica_set = build_replicated_partition()
        coordinator = MultiMasterCoordinator(replica_set, enabled=True)
        chosen = coordinator.choose_write_element(["se-0", "se-1", "se-2"])
        assert chosen == "se-0"
        assert not coordinator.has_diverged

    def test_fallback_to_reachable_slave_when_enabled(self):
        _, _, _, _, replica_set = build_replicated_partition()
        coordinator = MultiMasterCoordinator(replica_set, enabled=True)
        chosen = coordinator.choose_write_element(["se-1", "se-2"],
                                                  timestamp=12.0)
        assert chosen in {"se-1", "se-2"}
        assert coordinator.has_diverged
        assert coordinator.stats.degraded_writes == 1
        record = coordinator.divergence[chosen]
        assert record.first_write_at == 12.0

    def test_single_master_mode_rejects_writes(self):
        """The paper's default: favour Consistency, fail the write."""
        _, _, _, _, replica_set = build_replicated_partition()
        coordinator = MultiMasterCoordinator(replica_set, enabled=False)
        with pytest.raises(MasterUnreachable):
            coordinator.choose_write_element(["se-1", "se-2"])
        assert coordinator.stats.rejected_writes == 1

    def test_no_reachable_copy_fails_even_multimaster(self):
        _, _, _, elements, replica_set = build_replicated_partition()
        coordinator = MultiMasterCoordinator(replica_set, enabled=True)
        with pytest.raises(MasterUnreachable):
            coordinator.choose_write_element([])

    def test_crashed_master_falls_back(self):
        _, _, _, elements, replica_set = build_replicated_partition()
        elements[0].crash()
        coordinator = MultiMasterCoordinator(replica_set, enabled=True)
        chosen = coordinator.choose_write_element(["se-0", "se-1", "se-2"])
        assert chosen != "se-0"

    def test_clear_divergence(self):
        _, _, _, _, replica_set = build_replicated_partition()
        coordinator = MultiMasterCoordinator(replica_set, enabled=True)
        coordinator.choose_write_element(["se-1"])
        coordinator.clear_divergence()
        assert not coordinator.has_diverged
