"""Online reconciliation: digests, drift repair, false positives, quarantine.

The drift matrix PR 8 pins, one suite per layer:

* **digests** -- two copies in the same state digest identically; any
  divergence (value bytes included) narrows to the differing merkle
  buckets;
* **repair** -- each :class:`~repro.faults.SilentCorruption` kind is
  detected and repaired in place within one reconciliation round:
  ``byte_flip`` restores the master's bytes, ``skip_apply`` replays the
  swallowed versions, ``locator_drop`` re-registers the identities, and a
  slave-only phantom is tombstoned;
* **false positives** -- a slave merely *behind* (replication backlog
  still in flight, e.g. during a network partition) is dismissed, not
  repaired;
* **read quarantine** -- copies under repair are steered around on the
  read path, and the quarantine always lifts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdc import Reconciler, bucket_of, digest_store
from repro.cdc.reconcile import slave_copy_missing_versions
from repro.api.operations import Read
from repro.core import ClientType, UDRConfig
from repro.core.config import CdcPolicy
from repro.directory import UnknownIdentity
from repro.faults import FaultInjector, FaultSchedule, SilentCorruption
from repro.net import NetworkPartition
from repro.storage import RecordStore
from repro.storage.records import RecordVersion

from tests.conftest import build_udr, fe_site_for, run_to_completion
from tests.helpers import (
    build_replicated_partition,
    corruption_rng,
    flip_slave_record,
    inject_corruption,
    make_corruption,
    master_write,
    run_healed_fault_schedule,
)


def cdc_udr(subscribers=24, interval=2.0, **policy):
    config = UDRConfig(
        seed=7, cdc=CdcPolicy(reconcile_interval=interval, **policy))
    return build_udr(config, subscribers=subscribers)


def run_rounds(udr, rounds=1):
    """Advance the simulation across ``rounds`` reconciliation rounds."""
    interval = udr.config.cdc.reconcile_interval
    target = udr.reconciler.rounds + rounds
    deadline = udr.sim.now + (rounds + 2) * interval * 2
    while udr.reconciler.rounds < target and udr.sim.now < deadline:
        udr.sim.run(until=udr.sim.now + interval)
    assert udr.reconciler.rounds >= target
    return udr


def partition_with_records(udr):
    """An index whose master store holds at least one record."""
    for index in sorted(udr.replica_sets):
        replica_set = udr.replica_sets[index]
        master = replica_set.master_element_name
        if replica_set.copy_on(master).store.keys():
            return index
    pytest.fail("no partition holds records")


class TestDigests:
    def test_equal_states_digest_identically(self):
        _, _, _, _, replica_set = build_replicated_partition()
        for value in range(5):
            master_write(replica_set, f"sub-{value}", {"v": value})
        master = replica_set.master_copy.store
        mine, again = digest_store(master), digest_store(master)
        assert mine == again
        assert mine.leaves == 5
        replica = RecordStore("copy")
        for key in master.keys():
            replica.apply_version(master.latest(key))
        assert digest_store(replica).root == mine.root

    def test_value_divergence_narrows_to_its_bucket(self):
        _, _, _, _, replica_set = build_replicated_partition()
        for value in range(8):
            master_write(replica_set, f"sub-{value}", {"v": value})
        master = replica_set.master_copy.store
        replica = RecordStore("copy")
        for key in master.keys():
            replica.apply_version(master.latest(key))
        # Same commit_seq, different bytes: the byte-flip drift class.
        victim = sorted(master.keys())[3]
        original = replica.latest(victim)
        replica.apply_version(RecordVersion(
            victim, {"v": -1}, original.commit_seq,
            original.transaction_id, original.origin))
        diff = digest_store(master).diff(digest_store(replica))
        assert diff == [bucket_of(victim, 16)]

    def test_missing_key_and_bucket_count_mismatch(self):
        _, _, _, _, replica_set = build_replicated_partition()
        master_write(replica_set, "sub-1", {"v": 1})
        master = replica_set.master_copy.store
        empty = RecordStore("empty")
        assert digest_store(master).diff(digest_store(empty)) == \
            [bucket_of("sub-1", 16)]
        # Layout change: every bucket is suspect.
        assert len(digest_store(master, 4).diff(digest_store(master, 8))) \
            == 8

    def test_invalid_bucket_count_rejected(self):
        with pytest.raises(ValueError):
            digest_store(RecordStore(), buckets=0)

    def test_missing_version_suffix_helper(self):
        chain = [RecordVersion("k", {"v": i}, i, i) for i in range(1, 6)]
        assert [v.commit_seq
                for v in slave_copy_missing_versions(chain, 2)] == [3, 4, 5]
        assert slave_copy_missing_versions(chain, 5) == []


class TestDriftRepair:
    def test_byte_flip_detected_and_value_restored(self):
        udr, _ = cdc_udr()
        udr.sim.run(until=0.5)
        index = partition_with_records(udr)
        report = inject_corruption(udr, "byte_flip", index)
        assert report.applied
        replica_set = udr.replica_sets[index]
        slave_store = replica_set.copy_on(report.element_name).store
        master_store = replica_set.copy_on(
            replica_set.master_element_name).store
        assert slave_store.read_committed(report.key) != \
            master_store.read_committed(report.key)
        run_rounds(udr, rounds=2)
        assert slave_store.read_committed(report.key) == \
            master_store.read_committed(report.key)
        kinds = {r.kind for r in udr.reconciler.repairs}
        assert "value_restored" in kinds
        assert udr.metrics.counter("reconciliation.detected") >= 1
        assert udr.metrics.counter("reconciliation.repaired") >= 1

    def test_skip_apply_replays_swallowed_versions(self):
        udr, profiles = cdc_udr()
        udr.sim.run(until=0.5)
        index = partition_with_records(udr)
        replica_set = udr.replica_sets[index]
        # Commit on the master; the mux's wake is a scheduled process, so
        # the shipment window is open until the simulation advances.
        key = sorted(replica_set.copy_on(
            replica_set.master_element_name).store.keys())[0]
        copy = replica_set.copy_on(replica_set.master_element_name)
        tx = copy.transactions.begin()
        tx.write(key, {"drifted": True})
        tx.commit(timestamp=udr.sim.now)
        report = inject_corruption(udr, "skip_apply", index)
        assert report.applied and report.records_swallowed >= 1
        slave_store = replica_set.copy_on(report.element_name).store
        udr.sim.run(until=udr.sim.now + 1.0)  # mux skips the acked records
        assert slave_store.latest(key).value != {"drifted": True}
        run_rounds(udr, rounds=2)
        assert slave_store.read_committed(key) == {"drifted": True}
        assert "missing_versions" in \
            {r.kind for r in udr.reconciler.repairs}

    def test_locator_drop_reregistered(self):
        udr, profiles = cdc_udr()
        udr.sim.run(until=0.5)
        index = partition_with_records(udr)
        report = inject_corruption(udr, "locator_drop", index)
        assert report.applied and report.identities
        site = report.corruption.site_name
        locator = udr.locators[f"cluster-{site}"]
        identity_type, value = next(iter(report.identities.items()))
        with pytest.raises(UnknownIdentity):
            locator.locate(identity_type, value)
        run_rounds(udr, rounds=2)
        located = locator.locate(identity_type, value)
        assert located is not None
        assert "locator_registered" in \
            {r.kind for r in udr.reconciler.repairs}
        assert udr.metrics.counter("reconciliation.locator_repaired") >= 1

    def test_phantom_key_tombstoned(self):
        udr, _ = cdc_udr()
        udr.sim.run(until=0.5)
        index = partition_with_records(udr)
        replica_set = udr.replica_sets[index]
        slave = replica_set.slave_names()[0]
        store = replica_set.copy_on(slave).store
        store.apply_version(RecordVersion(
            "sub:phantom", {"ghost": True}, store.last_applied_seq, 0))
        assert store.contains("sub:phantom")
        run_rounds(udr, rounds=2)
        assert not store.contains("sub:phantom")
        assert "phantom_removed" in \
            {r.kind for r in udr.reconciler.repairs}

    def test_scheduled_corruption_through_injector(self):
        udr, _ = cdc_udr()
        schedule = FaultSchedule() \
            .add_corruption(make_corruption(udr, "byte_flip", at=1.0)) \
            .add_corruption(make_corruption(udr, "locator_drop", at=1.0))
        injector = FaultInjector(udr, schedule)
        assert not schedule.empty
        injector.start()
        udr.sim.run(until=1.5)
        assert injector.corruptions_applied == 2
        assert all(r.applied for r in injector.corruption_reports)
        assert udr.metrics.counter("faults.corruption.injected") == 2
        run_rounds(udr, rounds=2)
        assert len(udr.reconciler.repairs) >= 2

    def test_clean_deployment_repairs_nothing(self):
        udr, _ = cdc_udr()
        run_rounds(udr, rounds=3)
        assert udr.reconciler.repairs == []
        assert udr.metrics.counter("reconciliation.detected") == 0
        status = udr.reconciler.status()
        assert status["enabled"] and status["running"]
        assert status["rounds"] >= 3
        assert status["counters"].get("reconciliation.rounds", 0) >= 3


class TestFalsePositives:
    def test_inflight_backlog_is_dismissed_not_repaired(self):
        udr, _ = cdc_udr()
        udr.sim.run(until=0.5)
        index = partition_with_records(udr)
        replica_set = udr.replica_sets[index]
        slave = replica_set.slave_names()[0]
        slave_site = udr.elements[slave].site
        # Isolate the slave's site: commits pile up as genuine in-flight
        # backlog the reconciler must not mistake for drift.
        partition = NetworkPartition.isolating(slave_site)
        udr.network.apply_partition(partition)
        copy = replica_set.copy_on(replica_set.master_element_name)
        key = sorted(copy.store.keys())[0]
        tx = copy.transactions.begin()
        tx.write(key, {"lagging": True})
        tx.commit(timestamp=udr.sim.now)
        run_rounds(udr, rounds=2)
        assert udr.metrics.counter("reconciliation.false_positive") >= 1
        assert not any(r.key == key for r in udr.reconciler.repairs)
        # Heal; replication converges; the next rounds see no drift.
        udr.network.heal_partition(partition)
        udr.sim.run(until=udr.sim.now + 2.0)
        detected = udr.metrics.counter("reconciliation.detected")
        run_rounds(udr, rounds=2)
        assert udr.metrics.counter("reconciliation.detected") == detected
        assert replica_set.copy_on(slave).store.read_committed(key) == \
            {"lagging": True}


class TestReadQuarantine:
    def test_quarantined_slaves_steered_around(self):
        udr, profiles = cdc_udr()
        udr.sim.run(until=0.5)
        # Find a profile whose record's partition we can fully quarantine.
        profile = profiles[0]
        key = f"sub:{profile.identities.imsi}"
        target = None
        for index, replica_set in udr.replica_sets.items():
            master = replica_set.master_element_name
            if key in replica_set.copy_on(master).store.keys():
                target = replica_set
                break
        assert target is not None, "profile record not found on any master"
        for slave in target.slave_names():
            udr.pipeline.read_quarantine.add(slave)
        client = udr.attach("fe@q", fe_site_for(udr, profile),
                            client_type=ClientType.APPLICATION_FE)
        with client.session() as session:
            response = run_to_completion(
                udr, session.call(Read(profile.identities.imsi)))
        assert response.ok
        assert udr.metrics.counter("reconciliation.reads_steered") >= 1
        udr.pipeline.read_quarantine.clear()

    def test_quarantine_lifts_after_every_round(self):
        udr, _ = cdc_udr()
        udr.sim.run(until=0.5)
        inject_corruption(udr, "byte_flip", partition_with_records(udr))
        run_rounds(udr, rounds=2)
        assert udr.pipeline.read_quarantine == set()
        assert len(udr.reconciler.repairs) >= 1


class TestPostHealConvergence:
    """Property (PR 9): *any* healed fault schedule converges.

    Hypothesis draws a compound fault schedule -- up to one incident per
    site, mixing element crashes, symmetric partitions, one-way
    partitions and site disasters -- and injects it into a
    membership-enabled deployment under live write traffic.  Everything
    is then healed and the system quiesces.  Whatever the schedule, the
    chaos invariant checker must report full replica and locator
    convergence and an empty violation log: no split-brain write, no
    acked write lost, no divergence the reconciliation plane left
    behind.
    """

    @settings(max_examples=8, deadline=None)
    @given(
        incidents=st.lists(
            st.tuples(
                st.sampled_from(("crash", "partition", "asym_partition",
                                 "disaster")),
                st.integers(min_value=0, max_value=2)),
            min_size=1, max_size=3,
            unique_by=lambda incident: incident[1]),
        seed=st.sampled_from((3, 7, 11)))
    def test_any_healed_fault_schedule_converges(self, incidents, seed):
        checker, replicas, locators = run_healed_fault_schedule(incidents,
                                                                seed)
        assert replicas, "replicas diverged after heal"
        assert locators, "locators diverged after heal"
        assert checker.violations == []


class TestHelpersAndValidation:
    def test_flip_slave_record_diverges_without_new_version(self):
        _, _, _, _, replica_set = build_replicated_partition()
        record = master_write(replica_set, "sub-1", {"v": 1, "name": "x"})
        replica_set.copy_on("se-1").transactions.apply_log_record(record)
        before = replica_set.copy_on("se-1").store.versions("sub-1")
        flipped = flip_slave_record(replica_set, "se-1", "sub-1")
        after = replica_set.copy_on("se-1").store.versions("sub-1")
        assert len(after) == len(before) == 1
        assert flipped.commit_seq == record.commit_seq
        assert flipped.value != \
            replica_set.master_copy.store.read_committed("sub-1")

    def test_corruption_validation(self):
        with pytest.raises(ValueError):
            SilentCorruption("site", 0, "bad_kind")
        with pytest.raises(ValueError):
            SilentCorruption("site", -1, "byte_flip")
        with pytest.raises(ValueError):
            SilentCorruption("site", 0, "byte_flip", at=-1.0)

    def test_rng_is_deterministic(self):
        assert corruption_rng(3).random() == corruption_rng(3).random()

    def test_cdc_policy_validation(self):
        with pytest.raises(ValueError):
            CdcPolicy(reconcile_interval=0)
        with pytest.raises(ValueError):
            CdcPolicy(digest_buckets=0)
        with pytest.raises(ValueError):
            CdcPolicy(digest_time=-1)
