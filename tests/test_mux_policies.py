"""Replication-mux queue-health policies (PR 5's satellite tasks).

* WAL retention: ``UDRConfig.wal_retention`` lets the mux truncate master
  commit logs through the slowest shipped-LSN cursor (never past the
  durability watermark), bounding log memory on long runs;
* recovery re-arm: the mux subscribes to the availability manager, so a
  link stalled on a down endpoint schedules *zero* retry wakeups and
  re-arms exactly on the component's recovery;
* one shipment per round: a link's whole backlog rides one transfer.
"""

from repro.cluster.saf import AvailabilityManager
from repro.core import UDRConfig
from repro.replication import AsyncReplicationChannel

from tests.helpers import build_replicated_partition, master_write, replicate
from tests.conftest import build_udr, run_to_completion


def build_link(seed=1, **mux_kwargs):
    """One partition, master at site 0, slave at site 1, mux-driven."""
    sim, network, _topology, elements, replica_set = \
        build_replicated_partition(seed=seed, num_elements=2,
                                   replication_factor=2)
    channel = AsyncReplicationChannel(sim, replica_set, "se-1")
    mux = replicate(sim, network, [channel], until=0.0, **mux_kwargs)
    return sim, network, elements, replica_set, channel, mux


class TestWalRetention:
    def test_shipped_and_durable_prefix_is_truncated(self):
        sim, _network, _elements, replica_set, channel, mux = \
            build_link(wal_retention=5)
        wal = replica_set.master_copy.wal
        for index in range(12):
            master_write(replica_set, f"k-{index}", {"v": index},
                         timestamp=sim.now)
        sim.run(until=0.2)  # one shipping round moves everything
        assert channel.lag().in_sync
        # Nothing truncated yet: the records are shipped but not durable.
        assert len(wal) == 12
        replica_set.master_copy.checkpointer.checkpoint(timestamp=sim.now)
        master_write(replica_set, "k-last", {"v": 99}, timestamp=sim.now)
        sim.run(until=0.4)  # the next round applies retention
        assert len(wal) < 13, "the shipped+durable prefix was dropped"
        assert mux.wal_records_truncated >= 12
        # The slave still holds every record.
        for index in range(12):
            assert replica_set.copy_on("se-1").store.contains(f"k-{index}")

    def test_slowest_cursor_bounds_truncation(self):
        """A second slave that never received anything pins the log."""
        sim, network, _topology, elements, replica_set = \
            build_replicated_partition(seed=2, num_elements=3,
                                       replication_factor=3)
        fast = AsyncReplicationChannel(sim, replica_set, "se-1")
        slow = AsyncReplicationChannel(sim, replica_set, "se-2")
        elements[2].crash()  # the slow slave is down: cursor stays at 0
        mux = replicate(sim, network, [fast, slow], until=0.0,
                        wal_retention=3)
        wal = replica_set.master_copy.wal
        for index in range(8):
            master_write(replica_set, f"k-{index}", {"v": index},
                         timestamp=sim.now)
        replica_set.master_copy.checkpointer.checkpoint(timestamp=sim.now)
        master_write(replica_set, "k-8", {"v": 8}, timestamp=sim.now)
        sim.run(until=0.3)
        assert len(wal) == 9, \
            "an unshipped slave's zero cursor must pin the whole log"
        assert mux.wal_records_truncated == 0

    def test_retention_bounds_log_memory_in_a_deployment(self):
        """End to end: a long writing run against a deployment with
        ``wal_retention`` and frequent checkpoints keeps every master log
        bounded, with replicas intact."""
        from repro.api import Write
        from repro.core import ClientType
        config = UDRConfig(wal_retention=10, checkpoint_period=0.5, seed=3)
        udr, profiles = build_udr(config, subscribers=24)
        client = udr.attach("ps", udr.topology.sites[0],
                            client_type=ClientType.PROVISIONING)
        session = client.session()
        for round_index in range(4):
            for index, profile in enumerate(profiles):
                run_to_completion(udr, session.call(
                    Write(profile.identities.imsi,
                          {"servingMsc": f"m-{round_index}-{index}"})))
            udr.sim.run_for(1.0)  # checkpoints + shipping rounds
        total_writes = 4 * len(profiles)
        truncated = udr.metrics.counter("replication.wal.truncated")
        assert truncated > 0
        for replica_set in udr.replica_sets.values():
            wal = replica_set.master_copy.wal
            assert len(wal) < total_writes, f"{wal!r} never truncated"


class TestRecoveryRearm:
    def test_endpoint_stall_waits_for_recovery_not_cadence(self):
        sim, network, _topology, elements, replica_set = \
            build_replicated_partition(seed=1, num_elements=2,
                                       replication_factor=2)
        manager = AvailabilityManager(sim)
        slave = elements[1]
        manager.manage("se-1", fail_action=slave.crash,
                       repair_action=lambda: slave.recover(
                           timestamp=sim.now))
        channel = AsyncReplicationChannel(sim, replica_set, "se-1")
        mux = replicate(sim, network, [channel], until=0.0,
                        availability=manager)
        manager.fail_component("se-1", auto_repair=False)
        master_write(replica_set, "k-1", {"v": 1}, timestamp=sim.now)
        sim.run(until=2.0)
        assert not replica_set.copy_on("se-1").store.contains("k-1")
        assert mux.wakeups <= 1, \
            "a down endpoint must not be polled on the retry cadence"
        wakeups_during_outage = mux.wakeups
        manager.repair_component("se-1")
        sim.run(until=2.2)
        assert replica_set.copy_on("se-1").store.contains("k-1")
        assert mux.wakeups == wakeups_during_outage + 1, \
            "recovery re-armed exactly one shipping round"

    def test_deployment_outage_costs_no_replication_wakeups(self):
        """The built deployment wires the subscription: an
        element outage with pending backlog schedules no mux retries, and
        lifecycle recovery drains the backlog."""
        udr, profiles = build_udr(subscribers=12)
        udr.sim.run_for(0.5)  # quiesce the base-load shipping rounds
        # Crash every slave of one replica set, then write to its master.
        replica_set = udr.replica_sets[0]
        for slave_name in replica_set.slave_names():
            udr.crash_element(slave_name)
        from tests.helpers import master_write as commit
        commit(replica_set, "outage-key", {"v": 1}, timestamp=udr.sim.now)
        wakeups_before = udr.replication_mux.wakeups
        udr.sim.run_for(2.0)
        assert udr.replication_mux.wakeups - wakeups_before <= 1
        for slave_name in replica_set.slave_names():
            udr.recover_element(slave_name)
        udr.sim.run_for(1.0)
        for slave_name in replica_set.slave_names():
            assert replica_set.copy_on(slave_name).store.contains(
                "outage-key")


class TestShipmentBackpressure:
    """A round ships the link's whole backlog in one transfer."""

    def test_unbounded_by_default(self):
        sim, _network, _elements, replica_set, channel, mux = build_link()
        for index in range(10):
            master_write(replica_set, f"k-{index}", {"v": index},
                         timestamp=sim.now)
        sim.run(until=0.2)
        assert mux.shipments == 1
        assert channel.records_shipped == 10


class TestCdcRetention:
    """A paused CDC stream's WAL taps pin retention through the log itself."""

    def build_cdc_link(self, **mux_kwargs):
        from repro.cdc import ChangeStream
        sim, network, elements, replica_set, channel, mux = \
            build_link(**mux_kwargs)
        stream = ChangeStream()
        for _, copy in replica_set.members():
            stream.tap(0, copy)
        return sim, network, elements, replica_set, channel, mux, stream

    def test_paused_stream_pins_retention(self):
        sim, _network, _elements, replica_set, channel, mux, stream = \
            self.build_cdc_link(wal_retention=3)
        wal = replica_set.master_copy.wal
        for index in range(6):
            master_write(replica_set, f"k-{index}", {"v": index},
                         timestamp=sim.now)
        sim.run(until=0.2)
        replica_set.master_copy.checkpointer.checkpoint(timestamp=sim.now)
        master_write(replica_set, "k-live", {"v": 6}, timestamp=sim.now)
        sim.run(until=0.4)
        assert mux.wal_records_truncated >= 6, \
            "a live stream (cursor at the tail) does not block retention"
        stream.pause()
        frozen = wal.pinned_lsn
        for index in range(6):
            master_write(replica_set, f"p-{index}", {"v": index},
                         timestamp=sim.now)
        sim.run(until=0.6)
        replica_set.master_copy.checkpointer.checkpoint(timestamp=sim.now)
        master_write(replica_set, "p-live", {"v": 99}, timestamp=sim.now)
        sim.run(until=0.8)
        # Everything past the frozen cursor is still in the log, shipped
        # and durable or not.
        assert wal.since(frozen), "paused cursor must pin the unseen suffix"
        assert wal.records[0].lsn <= frozen + 1
        stream.resume()
        assert stream.gap_records_lost == 0
        assert stream.checkpoint(0) == 14, "every commit folded, no gaps"

    def test_unpinned_stream_allows_normal_truncation(self):
        """A stream at the tail leaves retention exactly as without CDC."""
        sim, _n, _e, replica_set, channel, mux, stream = \
            self.build_cdc_link(wal_retention=2)
        wal = replica_set.master_copy.wal
        for index in range(8):
            master_write(replica_set, f"k-{index}", {"v": index},
                         timestamp=sim.now)
        sim.run(until=0.2)
        replica_set.master_copy.checkpointer.checkpoint(timestamp=sim.now)
        master_write(replica_set, "k-8", {"v": 8}, timestamp=sim.now)
        sim.run(until=0.4)
        assert wal.pinned_lsn == wal.last_lsn
        assert mux.wal_records_truncated >= 8
        assert stream.checkpoint(0) == 9

    def test_retention_never_truncates_past_cdc_cursor_property(self):
        """Hypothesis: under any interleaving of writes, pauses, resumes
        and checkpoint/retention rounds, every record the stream has not
        seen is still in the log, and resume recovers the full sequence."""
        from hypothesis import given, settings, strategies as st

        actions = st.lists(
            st.sampled_from(["write", "write", "write", "pause", "resume",
                             "round"]),
            min_size=1, max_size=25)

        @settings(max_examples=20, deadline=None)
        @given(actions=actions)
        def run(actions):
            sim, _n, _e, replica_set, channel, mux, stream = \
                self.build_cdc_link(wal_retention=2)
            wal = replica_set.master_copy.wal
            writes = 0
            for action in actions:
                if action == "write":
                    writes += 1
                    master_write(replica_set, f"k-{writes % 4}",
                                 {"v": writes}, timestamp=sim.now)
                elif action == "pause":
                    stream.pause()
                elif action == "resume":
                    stream.resume()
                else:
                    replica_set.master_copy.checkpointer.checkpoint(
                        timestamp=sim.now)
                    sim.run(until=sim.now + 0.2)
                # The invariant: LSNs are dense from 1, one per write, so
                # the log must still hold every record past the cursor.
                cursor = wal.pinned_lsn
                assert len(wal.since(cursor)) == writes - cursor
            stream.resume()
            assert stream.gap_records_lost == 0
            assert stream.checkpoint(0) == writes
            assert stream.events_folded == writes

        run()

    def test_cdc_off_leaves_no_trace(self):
        """Regression: without ``UDRConfig.cdc`` nothing of the CDC plane
        exists -- no stream taps, nothing pinning retention, no counters."""
        udr, _ = build_udr(UDRConfig(seed=5, wal_retention=10),
                           subscribers=10)
        assert udr.change_stream is None
        assert udr.history is None
        assert udr.reconciler is None
        for replica_set in udr.replica_sets.values():
            for _, copy in replica_set.members():
                # The catalog's own-commit tap and the mux's tap, no more.
                assert [tap.origin for tap in copy.wal.taps] == \
                    [copy.transactions.name, None]
        names = udr.metrics.names()["counters"]
        assert not any(name.startswith(("cdc.", "reconciliation."))
                       for name in names)

    def test_cdc_tap_is_passive_on_state_and_codes(self):
        """The same seeded write trace lands on identical result codes and
        identical store state with the CDC tap on (no reconciler) and off:
        the stream observes, it never participates."""
        from repro.api import Write
        from repro.core import ClientType
        from repro.core.config import CdcPolicy

        def run_trace(cdc):
            config = UDRConfig(seed=11, wal_retention=10,
                               checkpoint_period=0.5, cdc=cdc)
            udr, profiles = build_udr(config, subscribers=12)
            client = udr.attach("ps", udr.topology.sites[0],
                                client_type=ClientType.PROVISIONING)
            session = client.session()
            codes = []
            for index, profile in enumerate(profiles):
                response = run_to_completion(udr, session.call(
                    Write(profile.identities.imsi, {"servingMsc": f"m-{index}"})))
                codes.append(response.result_code)
            udr.sim.run_for(2.0)
            state = {}
            for set_name, replica_set in udr.replica_sets.items():
                for member in replica_set.member_names:
                    copy = replica_set.copy_on(member)
                    state[(set_name, member)] = {
                        key: copy.store.get(key)
                        for key in copy.store.keys()}
            return codes, state

        off_codes, off_state = run_trace(cdc=None)
        on_codes, on_state = run_trace(cdc=CdcPolicy())
        assert on_codes == off_codes
        assert on_state == off_state
