"""Batch-vs-sequential equivalence: the core correctness property of batched
admission.  For seeded random workloads, ``execute_batch`` must produce the
same result codes (in submission order) and leave the deployment in the same
final store/replica state as N sequential ``execute`` calls -- batching only
amortises cost, it never changes observable behaviour.  A second suite pins
the metric contract: one batch records the same counts as sequential
execution but flushes the metric batch exactly once, at batch end."""

import dataclasses
import hashlib
import json
import random

import pytest

from repro.core import (
    BatchItem,
    ClientType,
    DispatchMode,
    Priority,
    RetryPolicy,
    UDRConfig,
)
from repro.ldap import (
    AddRequest,
    DeleteRequest,
    ModifyRequest,
    SearchRequest,
    SubscriberSchema,
)
from repro.subscriber import SubscriberGenerator

from tests.conftest import build_udr, fe_site_for, run_to_completion

SUBSCRIBERS = 48


def seeded_workload(udr, profiles, seed, operations=40):
    """A random but order-insensitive request mix.

    The priority dequeue reorders a batch across classes, so the workload
    avoids the only order-*sensitive* shapes: every subscriber receives at
    most one write, deleted subscribers are never otherwise addressed, and
    created subscribers are fresh (never read in the same run).  Everything
    else -- the op mix, targets, sites and client types -- is drawn at
    random from ``seed``.
    """
    rng = random.Random(seed)
    shuffled = list(profiles)
    rng.shuffle(shuffled)
    deletable = [shuffled.pop() for _ in range(6)]
    modifiable = [shuffled.pop() for _ in range(12)]
    readable = list(shuffled)
    fresh = SubscriberGenerator(udr.config.regions,
                                seed=seed + 9000).generate(8)

    def dn(profile):
        return SubscriberSchema.subscriber_dn(profile.identities.imsi)

    items = []
    for _ in range(operations):
        choice = rng.random()
        if choice < 0.5 or not (modifiable or deletable or fresh):
            profile = rng.choice(readable)
            items.append(BatchItem(SearchRequest(dn=dn(profile)),
                                   ClientType.APPLICATION_FE,
                                   fe_site_for(udr, profile)))
        elif choice < 0.75 and modifiable:
            profile = modifiable.pop()
            client = rng.choice([ClientType.APPLICATION_FE,
                                 ClientType.PROVISIONING])
            items.append(BatchItem(
                ModifyRequest(dn=dn(profile),
                              changes={"servingMsc": f"msc-{seed}"}),
                client, fe_site_for(udr, profile)))
        elif choice < 0.9 and fresh:
            profile = fresh.pop()
            items.append(BatchItem(
                AddRequest(dn=dn(profile), attributes=profile.to_record()),
                ClientType.PROVISIONING, udr.topology.sites[0]))
        elif deletable:
            profile = deletable.pop()
            items.append(BatchItem(DeleteRequest(dn=dn(profile)),
                                   ClientType.PROVISIONING,
                                   udr.topology.sites[0]))
        else:
            profile = rng.choice(readable)
            items.append(BatchItem(SearchRequest(dn=dn(profile)),
                                   ClientType.APPLICATION_FE,
                                   fe_site_for(udr, profile)))
    return items


def run_sequential(udr, items):
    codes = []
    for item in items:
        response = run_to_completion(
            udr, udr.pipeline.execute(item.request, item.client_type,
                                      item.client_site,
                                      retry_policy=item.retry_policy))
        codes.append(response.result_code.name)
    return codes


def run_batched(udr, items):
    responses = run_to_completion(udr, udr.pipeline.execute_batch(items))
    return [response.result_code.name for response in responses]


def run_dispatched(udr, items, spacing=0.002):
    """Feed ``items`` as a timed arrival trace into the dispatcher.

    Arrivals are ``spacing`` seconds apart (inside the default linger
    budget, so waves really merge), and codes come back in submission
    order via each ticket's event.
    """
    tickets = []

    def arrivals():
        for item in items:
            yield udr.sim.timeout(spacing)
            tickets.append(udr.dispatcher.submit(
                item.request, item.client_type, item.client_site,
                priority=item.priority))

    run_to_completion(udr, arrivals())

    def wait_all():
        yield udr.sim.all_of([ticket.event for ticket in tickets])

    run_to_completion(udr, wait_all())
    return [ticket.event.value.result_code.name for ticket in tickets]


def store_state(udr):
    """Record values on every copy of every replica set, after quiescing.

    Commit sequence numbers and timestamps differ between the two runs (the
    batch spends less virtual time), so only the record *values* -- what a
    client could ever read -- are compared.
    """
    udr.sim.run_for(5.0)  # let asynchronous replication drain
    state = {}
    for set_name, replica_set in udr.replica_sets.items():
        for member in replica_set.member_names:
            copy = replica_set.copy_on(member)
            state[(set_name, member)] = {key: copy.store.get(key)
                                         for key in copy.store.keys()}
    return state


def state_digest(state):
    """A sha256 over :func:`store_state`, independent of dict order."""
    canonical = json.dumps(
        sorted((f"{set_name}/{member}", records)
               for (set_name, member), records in state.items()),
        sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def identity_locations(udr, items):
    locations = {}
    for item in items:
        identity = SubscriberSchema.identity_from_dn(item.request.dn)
        if identity is None:
            continue
        identity_type, value = identity
        locations[(identity_type, value)] = \
            udr.deployment.authoritative_lookup(identity_type, value)
    return locations


def equivalence_pair(config_kwargs=None, seed=7):
    kwargs = dict(config_kwargs or {})
    sequential = build_udr(config=UDRConfig(seed=seed, **kwargs),
                           subscribers=SUBSCRIBERS, seed=seed)
    batched = build_udr(config=UDRConfig(seed=seed, **kwargs),
                        subscribers=SUBSCRIBERS, seed=seed)
    return sequential, batched


class TestBatchSequentialEquivalence:
    @pytest.mark.parametrize("workload_seed", [11, 23, 47])
    def test_random_workload_codes_and_state(self, workload_seed):
        (seq_udr, seq_profiles), (bat_udr, _bat) = equivalence_pair()
        items = seeded_workload(seq_udr, seq_profiles, workload_seed)
        sequential_codes = run_sequential(seq_udr, items)
        batched_codes = run_batched(bat_udr, items)
        assert batched_codes == sequential_codes
        assert store_state(bat_udr) == store_state(seq_udr)
        assert identity_locations(bat_udr, items) == \
            identity_locations(seq_udr, items)

    @pytest.mark.parametrize("batch_max_size", [1, 5, 64])
    def test_equivalence_across_wave_sizes(self, batch_max_size):
        (seq_udr, seq_profiles), (bat_udr, _bat) = equivalence_pair(
            {"batch_max_size": batch_max_size})
        items = seeded_workload(seq_udr, seq_profiles, seed=31)
        assert run_batched(bat_udr, items) == run_sequential(seq_udr, items)
        assert store_state(bat_udr) == store_state(seq_udr)

    def test_equivalence_with_cache_disabled(self):
        (seq_udr, seq_profiles), (bat_udr, _bat) = equivalence_pair()
        for udr in (seq_udr, bat_udr):
            udr.pipeline.cache_for = lambda poa: None
        items = seeded_workload(seq_udr, seq_profiles, seed=59)
        assert run_batched(bat_udr, items) == run_sequential(seq_udr, items)
        assert store_state(bat_udr) == store_state(seq_udr)

    def test_equivalence_with_retry_policy_on_healthy_deployment(self):
        """On a healthy deployment the retry stage never fires, so a retry
        policy must not perturb the equivalence property."""
        (seq_udr, seq_profiles), (bat_udr, _bat) = equivalence_pair()
        policy = RetryPolicy(max_retries=2)
        items = [dataclasses.replace(item, retry_policy=policy)
                 for item in seeded_workload(seq_udr, seq_profiles, seed=67)]
        assert run_batched(bat_udr, items) == run_sequential(seq_udr, items)
        assert store_state(bat_udr) == store_state(seq_udr)
        assert bat_udr.metrics.counter("batch.retries") == 0

    def test_dependent_same_class_batch_matches_sequential(self):
        """Within one priority class admission order is submission order, so
        even *dependent* request chains -- create then read, create then
        duplicate create, delete then read of the same identity -- must
        match sequential execution: unknown identities are re-resolved at
        each request's own turn, not frozen at wave start."""
        (seq_udr, seq_profiles), (bat_udr, bat_profiles) = equivalence_pair()
        newcomer = SubscriberGenerator(seq_udr.config.regions,
                                       seed=4242).generate_one()
        victim = seq_profiles[0]

        def items_for(udr):
            site = udr.topology.sites[0]
            newcomer_dn = SubscriberSchema.subscriber_dn(
                newcomer.identities.imsi)
            victim_dn = SubscriberSchema.subscriber_dn(
                victim.identities.imsi)
            return [
                BatchItem(AddRequest(dn=newcomer_dn,
                                     attributes=newcomer.to_record()),
                          ClientType.PROVISIONING, site),
                BatchItem(SearchRequest(dn=newcomer_dn),
                          ClientType.PROVISIONING, site),
                BatchItem(AddRequest(dn=newcomer_dn,
                                     attributes=newcomer.to_record()),
                          ClientType.PROVISIONING, site),
                BatchItem(DeleteRequest(dn=victim_dn),
                          ClientType.PROVISIONING, site),
                BatchItem(SearchRequest(dn=victim_dn),
                          ClientType.PROVISIONING, site),
            ]

        sequential_codes = run_sequential(seq_udr, items_for(seq_udr))
        batched_codes = run_batched(bat_udr, items_for(bat_udr))
        assert sequential_codes == ["SUCCESS", "SUCCESS",
                                    "ENTRY_ALREADY_EXISTS", "SUCCESS",
                                    "NO_SUCH_OBJECT"]
        assert batched_codes == sequential_codes
        assert store_state(bat_udr) == store_state(seq_udr), \
            "in particular, the duplicate create must not have placed a " \
            "second copy of the newcomer on another element"

    def test_delete_then_recreate_repeats_placement_policy(self):
        """A CREATE following a DELETE of the same identity in one wave must
        run the placement policy again, not silently reuse the location the
        shared probe resolved before the delete ran."""
        from repro.core import PlacementMode
        config_kwargs = {"placement": PlacementMode.RANDOM}
        (seq_udr, seq_profiles), (bat_udr, _bat) = equivalence_pair(
            config_kwargs)
        profile = seq_profiles[0]
        dn = SubscriberSchema.subscriber_dn(profile.identities.imsi)

        def items_for(udr):
            site = udr.topology.sites[0]
            return [
                BatchItem(DeleteRequest(dn=dn), ClientType.PROVISIONING,
                          site),
                BatchItem(AddRequest(dn=dn, attributes=profile.to_record()),
                          ClientType.PROVISIONING, site),
            ]

        sequential_codes = run_sequential(seq_udr, items_for(seq_udr))
        batched_codes = run_batched(bat_udr, items_for(bat_udr))
        assert batched_codes == sequential_codes == ["SUCCESS", "SUCCESS"]
        imsi = profile.identities.imsi
        assert bat_udr.deployment.authoritative_lookup("imsi", imsi) == \
            seq_udr.deployment.authoritative_lookup("imsi", imsi), \
            "the recreate's placement must match the sequential run's"
        assert store_state(bat_udr) == store_state(seq_udr)

    def test_cross_site_same_class_dependence_matches_sequential(self):
        """Site groups only share the pipeline *front*; the transactional
        tail runs in global admission order, so a dependent chain spanning
        two client sites still behaves sequentially."""
        (seq_udr, seq_profiles), (bat_udr, _bat) = equivalence_pair()
        known = seq_profiles[0]
        newcomer = SubscriberGenerator(seq_udr.config.regions,
                                       seed=6161).generate_one()
        newcomer_dn = SubscriberSchema.subscriber_dn(
            newcomer.identities.imsi)

        def items_for(udr):
            site_a, site_b = udr.topology.sites[0], udr.topology.sites[1]
            return [
                BatchItem(SearchRequest(dn=SubscriberSchema.subscriber_dn(
                    known.identities.imsi)), ClientType.PROVISIONING,
                    site_a),
                BatchItem(AddRequest(dn=newcomer_dn,
                                     attributes=newcomer.to_record()),
                          ClientType.PROVISIONING, site_b),
                BatchItem(SearchRequest(dn=newcomer_dn),
                          ClientType.PROVISIONING, site_a),
            ]

        sequential_codes = run_sequential(seq_udr, items_for(seq_udr))
        batched_codes = run_batched(bat_udr, items_for(bat_udr))
        assert batched_codes == sequential_codes == \
            ["SUCCESS", "SUCCESS", "SUCCESS"]
        assert store_state(bat_udr) == store_state(seq_udr)

    def test_unknown_identity_probed_once_without_wave_writes(self):
        """In a wave without placement-changing writes an unknown identity
        cannot become known mid-batch, so the shared probe's verdict is
        final: one locator probe, like one sequential request."""
        udr, profiles = build_udr(config=UDRConfig(seed=7),
                                  subscribers=SUBSCRIBERS)
        site = udr.topology.sites[0]
        unknown_dn = SubscriberSchema.subscriber_dn("999999999999999")
        # Identify the serving PoA by warming with a known read first.
        run_to_completion(udr, udr.pipeline.execute(
            SearchRequest(dn=SubscriberSchema.subscriber_dn(
                profiles[0].identities.imsi)),
            ClientType.APPLICATION_FE, site))
        poa = next(p for p in udr.points_of_access if p.site == site)
        lookups_before = poa.locator.stats.lookups
        responses = run_to_completion(udr, udr.pipeline.execute_batch([
            BatchItem(SearchRequest(dn=unknown_dn),
                      ClientType.APPLICATION_FE, site),
            BatchItem(SearchRequest(dn=unknown_dn),
                      ClientType.APPLICATION_FE, site),
        ]))
        assert [r.result_code.name for r in responses] == \
            ["NO_SUCH_OBJECT", "NO_SUCH_OBJECT"]
        assert poa.locator.stats.lookups == lookups_before + 1

    def test_responses_in_submission_order(self):
        """The priority dequeue reorders processing, never the answers."""
        (_seq, _), (udr, profiles) = equivalence_pair()
        known = profiles[0]
        unknown_dn = SubscriberSchema.subscriber_dn("999999999999999")
        items = [
            BatchItem(SearchRequest(dn=unknown_dn), ClientType.PROVISIONING,
                      udr.topology.sites[0], priority=Priority.BULK),
            BatchItem(SearchRequest(dn=SubscriberSchema.subscriber_dn(
                known.identities.imsi)), ClientType.APPLICATION_FE,
                fe_site_for(udr, known)),
        ]
        responses = run_to_completion(udr, udr.pipeline.execute_batch(items))
        assert responses[0].result_code.name == "NO_SUCH_OBJECT"
        assert responses[0].request is items[0].request
        assert responses[1].result_code.name == "SUCCESS"
        assert responses[1].request is items[1].request


class TestCoalescedEquivalence:
    """The batch property with cross-wave write coalescing switched on:
    multi-record transactions only amortise cost, never change codes or
    state."""

    @pytest.mark.parametrize("workload_seed", [11, 23, 47])
    def test_random_workload_codes_and_state(self, workload_seed):
        (seq_udr, seq_profiles), (bat_udr, _bat) = equivalence_pair(
            {"coalesce_writes": True})
        items = seeded_workload(seq_udr, seq_profiles, workload_seed)
        sequential_codes = run_sequential(seq_udr, items)
        batched_codes = run_batched(bat_udr, items)
        assert batched_codes == sequential_codes
        assert store_state(bat_udr) == store_state(seq_udr)
        assert identity_locations(bat_udr, items) == \
            identity_locations(seq_udr, items)
        assert bat_udr.metrics.counter("batch.coalesced.groups") > 0
        assert bat_udr.metrics.counter("batch.coalesced.records") >= \
            bat_udr.metrics.counter("batch.coalesced.groups")

    def test_dependent_same_class_chain_with_coalescing(self):
        """Create-then-read, duplicate create (savepoint rollback), delete
        and read-after-delete must match sequential execution even when the
        writes share one transaction."""
        (seq_udr, seq_profiles), (bat_udr, _bat) = equivalence_pair(
            {"coalesce_writes": True})
        newcomer = SubscriberGenerator(seq_udr.config.regions,
                                       seed=4242).generate_one()
        victim = seq_profiles[0]

        def items_for(udr):
            site = udr.topology.sites[0]
            newcomer_dn = SubscriberSchema.subscriber_dn(
                newcomer.identities.imsi)
            victim_dn = SubscriberSchema.subscriber_dn(
                victim.identities.imsi)
            return [
                BatchItem(AddRequest(dn=newcomer_dn,
                                     attributes=newcomer.to_record()),
                          ClientType.PROVISIONING, site),
                BatchItem(SearchRequest(dn=newcomer_dn),
                          ClientType.PROVISIONING, site),
                BatchItem(AddRequest(dn=newcomer_dn,
                                     attributes=newcomer.to_record()),
                          ClientType.PROVISIONING, site),
                BatchItem(DeleteRequest(dn=victim_dn),
                          ClientType.PROVISIONING, site),
                BatchItem(SearchRequest(dn=victim_dn),
                          ClientType.PROVISIONING, site),
            ]

        sequential_codes = run_sequential(seq_udr, items_for(seq_udr))
        batched_codes = run_batched(bat_udr, items_for(bat_udr))
        assert batched_codes == sequential_codes == \
            ["SUCCESS", "SUCCESS", "ENTRY_ALREADY_EXISTS", "SUCCESS",
             "NO_SUCH_OBJECT"]
        assert store_state(bat_udr) == store_state(seq_udr)
        assert bat_udr.metrics.counter("batch.coalesced.rollbacks") == 1


class TestDispatcherEquivalence:
    """The acceptance property of the dispatcher PR: for a seeded arrival
    trace, dispatcher execution yields identical result codes and final
    store/replica state as sequential execution -- with coalescing both
    off and on."""

    @pytest.mark.parametrize("coalesce", [False, True])
    @pytest.mark.parametrize("workload_seed", [11, 23])
    def test_seeded_arrival_trace(self, workload_seed, coalesce):
        sequential = build_udr(config=UDRConfig(seed=7),
                               subscribers=SUBSCRIBERS, seed=7)
        dispatched = build_udr(
            config=UDRConfig(seed=7,
                             dispatch_mode=DispatchMode.DISPATCHER,
                             batch_linger_ticks=5,
                             coalesce_writes=coalesce),
            subscribers=SUBSCRIBERS, seed=7)
        seq_udr, seq_profiles = sequential
        dis_udr, _profiles = dispatched
        items = seeded_workload(seq_udr, seq_profiles, workload_seed)
        sequential_codes = run_sequential(seq_udr, items)
        dispatched_codes = run_dispatched(dis_udr, items)
        assert dispatched_codes == sequential_codes
        assert store_state(dis_udr) == store_state(seq_udr)
        assert identity_locations(dis_udr, items) == \
            identity_locations(seq_udr, items)
        # The trace really exercised wave formation: fewer waves than
        # requests means arrivals were merged by the linger budget.
        waves = dis_udr.metrics.counter("dispatcher.waves")
        assert 0 < waves < len(items)

    def test_dispatcher_throughput_counts_every_request(self):
        (_seq, _), (dis_udr, dis_profiles) = (
            (None, None),
            build_udr(config=UDRConfig(
                seed=7, dispatch_mode=DispatchMode.DISPATCHER,
                batch_linger_ticks=5), subscribers=SUBSCRIBERS, seed=7))
        items = seeded_workload(dis_udr, dis_profiles, seed=31,
                                operations=20)
        codes = run_dispatched(dis_udr, items)
        assert len(codes) == len(items)
        assert dis_udr.metrics.counter("dispatcher.enqueued") == len(items)
        assert dis_udr.metrics.counter("dispatcher.dispatched") == \
            len(items)


#: Result codes and :func:`state_digest` of the per-channel polling driver
#: for each workload seed (deployment seed 7), recorded before the mux
#: became the only shipping driver.
POLLING_REFERENCE = {
    11: (["SUCCESS"] * 40,
         "5a385196f07ae4f7bb0117e2ad1e657e8d1fcaa6d3baaf638a20e34db0a1da9b"),
    23: (["SUCCESS"] * 40,
         "d88f989df179a4f78babdbac6510eb6a0550fe821d8fca419a949efde24d0beb"),
}


class TestMuxEquivalence:
    """Multiplexed shipping only amortises cost: replica contents,
    staleness behaviour and fail-over resumption match the paper's
    per-channel polling loops (recorded in :data:`POLLING_REFERENCE`)."""

    @pytest.mark.parametrize("workload_seed", [11, 23])
    def test_seeded_workload_state_matches_polling(self, workload_seed):
        udr, profiles = build_udr(config=UDRConfig(seed=7),
                                  subscribers=SUBSCRIBERS, seed=7)
        items = seeded_workload(udr, profiles, workload_seed)
        polling_codes, polling_digest = POLLING_REFERENCE[workload_seed]
        assert run_sequential(udr, items) == polling_codes
        assert state_digest(store_state(udr)) == polling_digest
        assert udr.replication_mux.wakeups > 0

    def test_failover_rebinds_and_resumes_from_correct_lsn(self):
        """The master moves sites mid-stream: the mux re-binds to the new
        master's log and the surviving slave stream resumes with no
        duplicate and no skipped applies."""
        udr, profiles = build_udr(
            config=UDRConfig(seed=7, replication_factor=3),
            subscribers=SUBSCRIBERS, seed=7)
        profile = profiles[0]
        dn = SubscriberSchema.subscriber_dn(profile.identities.imsi)
        site = fe_site_for(udr, profile)
        old_master = udr.deployment.authoritative_lookup(
            "imsi", profile.identities.imsi)
        replica_set = udr.deployment.replica_set_of_element(old_master)
        for index in range(4):
            run_to_completion(udr, udr.pipeline.execute(
                ModifyRequest(dn=dn, changes={"servingMsc": f"pre-{index}"}),
                ClientType.APPLICATION_FE, site))
        udr.sim.run_for(0.2)  # drain: every copy holds pre-3
        udr.crash_element(old_master)
        promotions = udr.fail_over(old_master)
        assert replica_set.master_element_name != old_master
        assert promotions
        for index in range(4):
            response = run_to_completion(udr, udr.pipeline.execute(
                ModifyRequest(dn=dn, changes={"servingMsc": f"post-{index}"}),
                ClientType.APPLICATION_FE, site))
            assert response.ok
        udr.sim.run_for(0.5)
        new_master = replica_set.master_element_name
        surviving_slave = next(
            name for name in replica_set.member_names
            if name not in (old_master, new_master))
        key = profile.key
        master_versions = [
            v.commit_seq
            for v in replica_set.master_copy.store.versions(key)]
        slave_versions = [
            v.commit_seq
            for v in replica_set.copy_on(surviving_slave).store.versions(key)]
        assert slave_versions == master_versions, \
            "no skipped and no duplicate applies across the fail-over"
        assert len(set(slave_versions)) == len(slave_versions)
        assert replica_set.copy_on(surviving_slave).store.get(key)[
            "servingMsc"] == "post-3"

    def test_idle_deployment_schedules_zero_replication_wakeups(self):
        """The wakeup-count regression check: an idle deployment must not
        schedule replication events at all -- per-channel polling would
        wake len(channels) times per interval.  This is what keeps future
        changes from silently reintroducing the polling fan-out."""
        udr, _profiles = build_udr(config=UDRConfig(seed=7),
                                   subscribers=SUBSCRIBERS, seed=7)
        udr.sim.run_for(1.0)  # quiesce the subscriber-load shipments
        wakeups_before = udr.replication_mux.wakeups
        events_before = udr.sim._sequence
        udr.sim.run_for(10.0)
        assert udr.replication_mux.wakeups == wakeups_before
        polling_would_wake = len(udr.channels) * int(
            10.0 / udr.config.replication_interval)
        assert polling_would_wake >= 1200, "the comparison is meaningful"
        assert udr.sim._sequence - events_before <= len(udr.channels), \
            "an idle deployment schedules (almost) nothing"


class TestBatchMetricsContract:
    def test_batched_counts_equal_sequential_counts(self):
        (seq_udr, seq_profiles), (bat_udr, _bat) = equivalence_pair()
        items = seeded_workload(seq_udr, seq_profiles, seed=83)
        run_sequential(seq_udr, items)
        run_batched(bat_udr, items)
        seq_udr.flush_metrics()
        bat_udr.flush_metrics()
        for client in (ClientType.APPLICATION_FE, ClientType.PROVISIONING):
            seq_outcomes = seq_udr.metrics.outcomes(client.value)
            bat_outcomes = bat_udr.metrics.outcomes(client.value)
            assert bat_outcomes.attempted == seq_outcomes.attempted
            assert bat_outcomes.succeeded == seq_outcomes.succeeded
            assert bat_udr.metrics.latency(client.value).count == \
                seq_udr.metrics.latency(client.value).count
        assert bat_udr.metrics.counter("response_lost") == \
            seq_udr.metrics.counter("response_lost")

    def test_batch_flushes_exactly_once_at_batch_end(self):
        """The fix: a batch no longer flushes per request.  One-slot waves
        flush once each, and one ``execute_batch`` flushes exactly once."""
        udr, profiles = build_udr(config=UDRConfig(seed=7),
                                  subscribers=SUBSCRIBERS)
        items = seeded_workload(udr, profiles, seed=97, operations=12)
        flushes_before = udr.pipeline.batch.flushes
        run_batched(udr, items)
        assert udr.pipeline.batch.flushes == flushes_before + 1
        assert udr.pipeline.batch.pending == 0
        # ... while the registry still received every record.
        attempted = sum(
            udr.metrics.outcomes(client.value).attempted
            for client in (ClientType.APPLICATION_FE, ClientType.PROVISIONING))
        assert attempted == len(items)

    def test_sequential_path_flush_cadence_unchanged(self):
        udr, profiles = build_udr(config=UDRConfig(seed=7),
                                  subscribers=SUBSCRIBERS)
        items = seeded_workload(udr, profiles, seed=97, operations=5)
        flushes_before = udr.pipeline.batch.flushes
        run_sequential(udr, items)
        assert udr.pipeline.batch.flushes == flushes_before + len(items)

    def test_linger_counts_as_latency_and_admitted_counts_admissions(self):
        from repro.core.pipeline import BATCH_LINGER_TICK
        udr, profiles = build_udr(config=UDRConfig(seed=7,
                                                   batch_linger_ticks=5),
                                  subscribers=SUBSCRIBERS)
        profile = profiles[0]
        site = fe_site_for(udr, profile)
        responses = run_to_completion(udr, udr.pipeline.execute_batch([
            BatchItem(SearchRequest(dn=SubscriberSchema.subscriber_dn(
                profile.identities.imsi)), ClientType.APPLICATION_FE,
                site)]))
        assert responses[0].latency >= 5 * BATCH_LINGER_TICK, \
            "the linger wait the client sat through is part of its latency"
        assert udr.metrics.counter("batch.admitted") == 1
        # A wave that cannot reach any PoA admits nothing.
        for poa in udr.points_of_access:
            poa.fail()
        responses = run_to_completion(udr, udr.pipeline.execute_batch([
            BatchItem(SearchRequest(dn=SubscriberSchema.subscriber_dn(
                profile.identities.imsi)), ClientType.APPLICATION_FE,
                site)]))
        assert responses[0].result_code.name == "UNAVAILABLE"
        assert udr.metrics.counter("batch.admitted") == 1, \
            "failed admission is not counted as admitted"

    def test_per_priority_counters_recorded(self):
        udr, profiles = build_udr(config=UDRConfig(seed=7),
                                  subscribers=SUBSCRIBERS)
        known = profiles[0]
        dn = SubscriberSchema.subscriber_dn(known.identities.imsi)
        items = [
            BatchItem(SearchRequest(dn=dn), ClientType.APPLICATION_FE,
                      fe_site_for(udr, known)),
            BatchItem(ModifyRequest(dn=dn, changes={"servingMsc": "m"}),
                      ClientType.PROVISIONING, udr.topology.sites[0]),
            BatchItem(SearchRequest(dn=dn), ClientType.PROVISIONING,
                      udr.topology.sites[0], priority=Priority.BULK),
        ]
        run_batched(udr, items)
        counters = udr.metrics.counters_with_prefix("batch.priority.")
        assert counters == {
            "batch.priority.signalling.completed": 1,
            "batch.priority.provisioning.completed": 1,
            "batch.priority.bulk.completed": 1,
        }
