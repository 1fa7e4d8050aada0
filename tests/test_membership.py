"""Membership plane: lease detection, quorum promotion, epoch fencing.

The split-brain matrix PR 9 pins, one suite per layer:

* **policy** -- validation and quorum derivation;
* **detection** -- a crashed master, a symmetrically isolated one and a
  one-way (asymmetric) cut all promote within the lease-plus-vote bound,
  while an isolated observer's suspicions stay *link* suspicions that
  never trigger a promotion, and a blip shorter than the lease window
  changes nothing;
* **fencing** -- the deposed master is fenced *before* every
  detector-triggered promotion (the self-fence ordering), a fenced copy
  answers ``FENCED`` (a retryable code), epochs advance monotonically,
  and a healed deposed master rejoins as a fenced, resynchronised slave;
* **oracle inertness** -- ``membership=None`` builds no plane, stamps no
  epochs and produces no ``FENCED`` codes: the PR 8 oracle path, bit for
  bit (two identical faulted runs produce identical codes and state).
"""

import pytest

from repro.api.operations import Read, Write
from repro.cluster import MembershipPlane, PromotionRecord
from repro.core import ClientType, UDRConfig
from repro.core.config import MembershipPolicy, RetryPolicy
from repro.ldap.operations import ResultCode
from repro.net import NetworkPartition

from tests.conftest import build_udr, fe_site_for, run_to_completion
from tests.helpers import run_healed_fault_schedule

HEARTBEAT = 0.1
LEASE_TICKS = 3
#: Mastership vacancy bound: tick alignment + lease window + bounded vote
#: (+ one heartbeat of coordinator poll grid).
BOUND = (LEASE_TICKS + 1) * HEARTBEAT + \
    MembershipPolicy().vote_timeout + HEARTBEAT


def membership_udr(seed=7, subscribers=24, **policy):
    policy.setdefault("heartbeat_interval", HEARTBEAT)
    policy.setdefault("lease_ticks", LEASE_TICKS)
    config = UDRConfig(seed=seed, membership=MembershipPolicy(**policy))
    return build_udr(config, subscribers=subscribers)


def master_of(udr, index=0):
    replica_set = udr.replica_sets[index]
    master = replica_set.master_element_name
    return replica_set, master, udr.elements[master].site


def keyed_partition(udr, profile):
    """The partition index mastering ``profile``'s record."""
    key = f"sub:{profile.identities.imsi}"
    for index, replica_set in udr.replica_sets.items():
        master = replica_set.master_element_name
        if key in replica_set.copy_on(master).store.keys():
            return index
    pytest.fail("profile record on no master store")


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            MembershipPolicy(heartbeat_interval=0)
        with pytest.raises(ValueError):
            MembershipPolicy(lease_ticks=0)
        with pytest.raises(ValueError):
            MembershipPolicy(quorum=0)
        with pytest.raises(ValueError):
            MembershipPolicy(vote_timeout=0)

    def test_quorum_is_a_strict_majority_by_default(self):
        policy = MembershipPolicy()
        assert policy.quorum_for(3) == 2
        assert policy.quorum_for(4) == 3
        assert policy.quorum_for(5) == 3

    def test_explicit_quorum_is_capped_at_the_site_count(self):
        assert MembershipPolicy(quorum=5).quorum_for(3) == 3

    def test_plane_is_built_only_when_configured(self):
        udr, _ = membership_udr()
        assert isinstance(udr.membership, MembershipPlane)
        assert udr.controller.membership is udr.membership.protocol
        off, _ = build_udr(UDRConfig(seed=7), subscribers=12)
        assert off.membership is None
        assert off.controller.membership is None


class TestDetection:
    def test_crashed_master_is_promoted_within_the_bound(self):
        udr, _ = membership_udr()
        replica_set, master, _ = master_of(udr)
        crash_at = udr.sim.now + 0.5
        udr.sim.run(until=crash_at)
        udr.crash_element(master)
        udr.sim.run(until=crash_at + 2.0)
        records = [record for record in udr.membership.history
                   if record.old_master == master]
        assert records, "no promotion after master crash"
        assert records[0].trigger == "detector"
        assert records[0].at - crash_at <= BOUND
        assert replica_set.master_element_name != master

    def test_partitioned_master_self_fences_then_is_promoted(self):
        udr, _ = membership_udr()
        replica_set, master, master_site = master_of(udr)
        partition = NetworkPartition.isolating(master_site)
        udr.sim.run(until=udr.sim.now + 0.5)
        fault_at = udr.sim.now
        udr.network.apply_partition(partition)
        udr.sim.run(until=fault_at + 2.0)
        assert udr.membership.stats.self_fences >= 1
        records = [record for record in udr.membership.history
                   if record.old_master == master]
        assert records and records[0].at - fault_at <= BOUND
        # The ordering proof: by the time the quorum promoted, the deposed
        # master had already stopped accepting writes.
        assert all(record.old_master_fenced for record in records)

    def test_one_way_cut_is_detected_like_a_partition(self):
        """Crash-vs-partition ambiguity: the master can still be heard
        from, yet cannot be probed -- promotion must still happen."""
        udr, _ = membership_udr()
        _, master, master_site = master_of(udr)
        udr.sim.run(until=udr.sim.now + 0.5)
        fault_at = udr.sim.now
        udr.network.apply_partition(NetworkPartition.one_way(master_site))
        udr.sim.run(until=fault_at + 2.0)
        records = [record for record in udr.membership.history
                   if record.old_master == master]
        assert records and records[0].at - fault_at <= BOUND
        assert udr.membership.stats.self_fences >= 1

    def test_isolated_observer_suspects_links_not_elements(self):
        """A minority-side site's suspicions never promote anyone else's
        masters: every promotion a partition causes deposes a master
        *behind* the cut, none in front of it."""
        udr, _ = membership_udr()
        cut_site = udr.topology.sites[0]
        udr.sim.run(until=udr.sim.now + 0.5)
        udr.network.apply_partition(NetworkPartition.isolating(cut_site))
        udr.sim.run(until=udr.sim.now + 2.0)
        assert udr.membership.stats.link_suspicions > 0
        for record in udr.membership.history:
            assert udr.elements[record.old_master].site == cut_site

    def test_blip_shorter_than_the_lease_window_changes_nothing(self):
        udr, _ = membership_udr()
        _, _, master_site = master_of(udr)
        partition = NetworkPartition.isolating(master_site)
        udr.sim.run(until=udr.sim.now + 0.45)
        udr.network.apply_partition(partition)
        udr.sim.run(until=udr.sim.now + (LEASE_TICKS - 1) * HEARTBEAT)
        udr.network.heal_partition(partition)
        udr.sim.run(until=udr.sim.now + 1.0)
        assert udr.membership.history == []
        assert udr.membership.stats.self_fences == 0


class TestFencing:
    def test_fenced_master_answers_fenced_and_recovers_on_unfence(self):
        udr, profiles = membership_udr()
        profile = profiles[0]
        index = keyed_partition(udr, profile)
        replica_set = udr.replica_sets[index]
        manager = replica_set.copy_on(
            replica_set.master_element_name).transactions
        manager.self_fence(reason="test")
        client = udr.attach("fe@fence", fe_site_for(udr, profile),
                            client_type=ClientType.APPLICATION_FE)
        with client.session() as session:
            denied = run_to_completion(udr, session.call(
                Write(profile.identities.imsi, {"servingMsc": "msc-f"})))
            assert denied.result_code is ResultCode.FENCED
            # Reads don't go through the write fence.
            read = run_to_completion(udr, session.call(
                Read(profile.identities.imsi)))
            assert read.ok
            manager.unfence()
            retried = run_to_completion(udr, session.call(
                Write(profile.identities.imsi, {"servingMsc": "msc-g"})))
            assert retried.ok

    def test_fenced_is_a_retryable_code(self):
        assert RetryPolicy().retries(ResultCode.FENCED)

    def test_writes_resume_on_the_new_master_at_the_new_epoch(self):
        udr, profiles = membership_udr()
        profile = profiles[0]
        index = keyed_partition(udr, profile)
        replica_set = udr.replica_sets[index]
        master = replica_set.master_element_name
        udr.sim.run(until=udr.sim.now + 0.5)
        udr.crash_element(master)
        udr.sim.run(until=udr.sim.now + 1.5)
        assert udr.membership.epoch_of(index) == 1
        new_master = replica_set.master_element_name
        assert new_master != master
        site = next(s for s in udr.topology.sites
                    if s != udr.elements[master].site)
        client = udr.attach("fe@epoch", site,
                            client_type=ClientType.APPLICATION_FE)
        with client.session() as session:
            response = run_to_completion(udr, session.call(
                Write(profile.identities.imsi, {"servingMsc": "msc-e1"})))
        assert response.ok
        top = replica_set.copy_on(new_master).wal.records[-1]
        assert top.epoch == 1
        assert top.position[0] == 1

    def test_epochs_advance_monotonically_across_failovers(self):
        udr, _ = membership_udr()
        replica_set, master, _ = master_of(udr)
        udr.sim.run(until=udr.sim.now + 0.5)
        udr.crash_element(master)
        udr.sim.run(until=udr.sim.now + 1.5)
        assert udr.membership.epoch_of(0) == 1
        second = replica_set.master_element_name
        udr.recover_element(master)
        udr.sim.run(until=udr.sim.now + 1.0)
        udr.crash_element(second)
        udr.sim.run(until=udr.sim.now + 1.5)
        assert udr.membership.epoch_of(0) == 2
        assert replica_set.master_element_name not in (None, second)

    def test_healed_deposed_master_rejoins_fenced_and_in_sync(self):
        udr, _ = membership_udr()
        replica_set, master, master_site = master_of(udr)
        partition = NetworkPartition.isolating(master_site)
        udr.sim.run(until=udr.sim.now + 0.5)
        udr.network.apply_partition(partition)
        udr.sim.run(until=udr.sim.now + 2.0)
        udr.network.heal_partition(partition)
        udr.sim.run(until=udr.sim.now + 2.0)
        deposed = replica_set.copy_on(master)
        assert deposed.transactions.fenced
        assert deposed.transactions.epoch == udr.membership.epoch_of(0)
        assert udr.membership.stats.fences_delivered >= 1
        assert udr.membership.protocol.pending_fences == {}

    def test_promotion_record_is_frozen_history(self):
        record = PromotionRecord(partition_index=0, epoch=1,
                                 old_master="a", new_master="b", at=1.0)
        with pytest.raises(AttributeError):
            record.epoch = 2


class TestOracleInertness:
    """``membership=None`` must be the PR 8 oracle path, bit for bit."""

    @staticmethod
    def _faulted_run(seed=11):
        config = UDRConfig(seed=seed)
        udr, profiles = build_udr(config, subscribers=18)
        sessions = {site: udr.attach(f"fe-{site.name}", site,
                                     client_type=ClientType.APPLICATION_FE)
                    .session()
                    for site in udr.topology.sites}
        replica_set = udr.replica_sets[0]
        master = replica_set.master_element_name
        futures = []

        def workload():
            rng = udr.sim.rng("inert.load")
            sites = list(udr.topology.sites)
            for index in range(120):
                yield udr.sim.timeout(rng.expovariate(60.0))
                profile = profiles[index % len(profiles)]
                operation = Write(profile.identities.imsi,
                                  {"servingMsc": f"m-{index}"}) \
                    if index % 2 else Read(profile.identities.imsi)
                futures.append(
                    sessions[sites[index % len(sites)]].submit(operation))
                if index == 60:
                    udr.crash_element(master)
                    udr.fail_over(master)

        udr.sim.process(workload())
        udr.sim.run(until=udr.sim.now + 6.0)
        codes = [future.response.result_code.name for future in futures]
        state = {}
        for index, rs in sorted(udr.replica_sets.items()):
            for member in rs.member_names:
                store = rs.copy_on(member).store
                state[(index, member)] = {
                    key: store.read_committed(key) for key in store.keys()}
        return udr, codes, state

    def test_oracle_failover_run_is_deterministic(self):
        _, codes_a, state_a = self._faulted_run()
        _, codes_b, state_b = self._faulted_run()
        assert codes_a == codes_b
        assert state_a == state_b

    def test_oracle_path_never_stamps_epochs_or_fences(self):
        udr, codes, _ = self._faulted_run()
        assert "FENCED" not in codes
        assert udr.membership is None
        for replica_set in udr.replica_sets.values():
            for member in replica_set.member_names:
                copy = replica_set.copy_on(member)
                assert not copy.transactions.fenced
                assert copy.transactions.epoch == 0
                assert all(record.epoch == 0
                           for record in copy.wal.records)


class TestUnavailabilityBound:
    def test_write_outage_is_the_lease_window_plus_the_vote(self):
        """Client-visible: sequential writes against the drilled
        partition recover within the bound plus one probe's retries."""
        udr, profiles = membership_udr()
        profile = profiles[0]
        index = keyed_partition(udr, profile)
        replica_set = udr.replica_sets[index]
        master = replica_set.master_element_name
        master_site = udr.elements[master].site
        probe_site = next(site for site in udr.topology.sites
                          if site != master_site)
        client = udr.attach("fe@probe", probe_site,
                            client_type=ClientType.APPLICATION_FE)
        session = client.session()
        log = []
        crash_at = udr.sim.now + 0.5

        def probe():
            count = 0
            while udr.sim.now < crash_at + 2.0:
                issued = udr.sim.now
                request = Write(profile.identities.imsi,
                                {"servingMsc": f"p-{count}"}).to_request()
                response = yield from session.call(request)
                log.append((issued, udr.sim.now, response.ok))
                count += 1
                yield udr.sim.timeout(0.025)

        def crash():
            yield udr.sim.timeout(crash_at - udr.sim.now)
            udr.crash_element(master)

        udr.sim.process(probe())
        udr.sim.process(crash())
        udr.sim.run(until=crash_at + 2.5)
        recovered = [completed for issued, completed, ok in log
                     if ok and issued >= crash_at]
        assert recovered, "no successful write after the crash"
        assert recovered[0] - crash_at <= BOUND + 0.5


class TestCompoundFaultRegression:
    """Pinned compound-fault schedules that once promoted over a live master.

    Site 0 isolated at t=0.5 s, then the first element at site 1 and at
    site 2 crashed at t=1.4 s and t=2.3 s, everything healed at t=3.2 s.
    Under seeds 7 and 11 a promotion vote against the crashed master
    ``se-germany-dc1-0`` was still open when the heal recovered it (live
    and unfenced: a crashed master's lease state resets), and the vote
    then promoted partition 1 to ``se-sweden-dc1-0`` at epoch 2 from the
    suspicion it had read before it yielded.  Seed 678 with two crashes
    and a disaster reported the same ``unfenced_promotion`` (partition 4,
    deposed master ``se-sweden-dc1-1``) in a random sweep of compound
    schedules.  ``MembershipPlane._try_promote`` now re-checks the suspect
    after the ballots and aborts when it is back in service with quorum
    contact.  The property in ``test_reconciliation.py`` draws too few
    examples to hit these cases reliably, so they are pinned here.
    """

    INCIDENTS = [("partition", 0), ("crash", 1), ("crash", 2)]

    @staticmethod
    def assert_converged_without_violations(incidents, seed):
        checker, replicas, locators = run_healed_fault_schedule(
            incidents, seed)
        assert replicas, "replicas diverged after heal"
        assert locators, "locators diverged after heal"
        assert [violation.kind for violation in checker.violations] == []

    @pytest.mark.parametrize("seed", [7, 11])
    def test_partition_plus_two_crashes_promotes_fenced(self, seed):
        self.assert_converged_without_violations(self.INCIDENTS, seed)

    def test_two_crashes_plus_disaster_promotes_fenced(self):
        self.assert_converged_without_violations(
            [("crash", 0), ("crash", 1), ("disaster", 1)], seed=678)
