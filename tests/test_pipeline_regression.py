"""Regression guard: ``execute()`` answers a canned request matrix with
exactly the result codes, latencies, serving copies, attempt counts and
diagnostics the sequential walk produced before single requests became
one-slot waves; the location-cache fast path never changes an answer; and
the batch path (mixed-priority batches, retry exhaustion, fail-over
mid-batch) answers its own canned matrix."""

from dataclasses import replace

import pytest

from repro.cluster.balancer import closest_point_of_access
from repro.core import BatchItem, ClientType, Priority, RetryPolicy, UDRConfig
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


def run_request_matrix(udr, profiles):
    """Drive a fixed request sequence; return one row per request:
    ``(label, code name, latency, served_from, attempts, diagnostic)``."""
    known = profiles[0]
    other = profiles[1]
    generator = SubscriberGenerator(udr.config.regions, seed=987)
    newcomer = generator.generate_one()
    fe, ps = ClientType.APPLICATION_FE, ClientType.PROVISIONING
    home = fe_site_for(udr, known)
    remote = next(site for site in udr.topology.sites
                  if site.region.name != known.home_region)

    def dn(profile):
        return SubscriberSchema.subscriber_dn(profile.identities.imsi)

    matrix = [
        ("read known imsi", fe, home, SearchRequest(dn=dn(known))),
        ("repeat read (cache hit path)", fe, home,
         SearchRequest(dn=dn(known))),
        ("read by msisdn filter", fe, home, SearchRequest(
            dn=SubscriberSchema.BASE_DN,
            filter_text=f"(msisdn={known.identities.msisdn})")),
        ("read unknown imsi", fe, home, SearchRequest(
            dn=SubscriberSchema.subscriber_dn("999999999999999"))),
        ("create newcomer", ps, home, AddRequest(
            dn=dn(newcomer), attributes=newcomer.to_record())),
        ("read newcomer", fe, home, SearchRequest(dn=dn(newcomer))),
        ("duplicate create", ps, home, AddRequest(
            dn=dn(known), attributes=known.to_record())),
        ("modify known", fe, home, ModifyRequest(
            dn=dn(known), changes={"servingMsc": "msc-1"})),
        ("modify unknown", ps, home, ModifyRequest(
            dn=SubscriberSchema.subscriber_dn("999999999999999"),
            changes={"servingMsc": "x"})),
        ("delete other", ps, home, DeleteRequest(dn=dn(other))),
        ("read deleted", fe, home, SearchRequest(dn=dn(other))),
        ("base scope search", fe, home, SearchRequest(
            dn=SubscriberSchema.BASE_DN, filter_text="(objectClass=*)")),
    ]
    rows = []

    def record(label, response):
        rows.append((label, response.result_code.name, response.latency,
                     response.served_from, response.attempts,
                     response.diagnostic_message))

    for label, client, site, request in matrix:
        record(label, run_to_completion(
            udr, udr.pipeline.execute(request, client, site)))

    # Partition the known subscriber's home region away and write from the
    # wrong side (the paper's prefer-consistency failure), then heal.
    region = udr.topology.region(known.home_region)
    partition = NetworkPartition.splitting_regions(udr.topology, region)
    udr.network.apply_partition(partition)
    bar_premium = ModifyRequest(dn=dn(known), changes={"svcBarPremium": True})
    record("write from cut-off side", run_to_completion(
        udr, udr.pipeline.execute(bar_premium, ps, remote)))
    udr.network.heal_partition(partition)
    record("write after heal", run_to_completion(
        udr, udr.pipeline.execute(bar_premium, ps, remote)))

    read_known = SearchRequest(dn=dn(known))
    record("deadline past at admission", run_to_completion(
        udr, udr.pipeline.execute(read_known, fe, home,
                                  deadline=udr.sim.now)))

    for poa in udr.points_of_access:
        poa.fail()
    record("no reachable PoA", run_to_completion(
        udr, udr.pipeline.execute(read_known, fe, home)))
    for poa in udr.points_of_access:
        poa.restore()

    serving = closest_point_of_access(udr.network, home,
                                      udr.points_of_access)

    def fail_serving_poa():
        # Down during the client-to-PoA hop, after admission chose it.
        yield udr.sim.timeout(1e-9)
        serving.fail()

    udr.sim.process(fail_serving_poa())
    record("PoA failed in flight", run_to_completion(
        udr, udr.pipeline.execute(read_known, fe, home)))
    serving.restore()

    record("malformed filter", run_to_completion(udr, udr.pipeline.execute(
        SearchRequest(dn=SubscriberSchema.BASE_DN, filter_text="(msisdn="),
        fe, home)))

    def sync_serving_locator():
        # Syncing from just after admission chose the PoA until before the
        # first retry's backoff ends.
        yield udr.sim.timeout(1e-9)
        serving.locator.begin_sync(total_entries=100)
        yield udr.sim.timeout(0.001)
        serving.locator.complete_sync()

    udr.sim.process(sync_serving_locator())
    record("session retry policy retries BUSY", run_to_completion(
        udr, udr.pipeline.execute(
            read_known, fe, home,
            retry_policy=RetryPolicy(max_retries=2, backoff_tick=0.005))))
    return rows


#: ``(label, code, latency, served_from, attempts, diagnostic)`` per row,
#: recorded from the sequential walk that preceded one-slot waves.
EXPECTED = [
    ('read known imsi', 'SUCCESS', 0.0005032384502313622,
     'se-germany-dc1-0', 0, ''),
    ('repeat read (cache hit path)', 'SUCCESS', 0.0003986532306510289,
     'se-germany-dc1-0', 0, ''),
    ('read by msisdn filter', 'SUCCESS', 0.00039155182946786534,
     'se-germany-dc1-0', 0, ''),
    ('read unknown imsi', 'NO_SUCH_OBJECT', 0.0003993464237481833,
     '', 0, 'unknown identity'),
    ('create newcomer', 'SUCCESS', 0.10129645012624416,
     'se-spain-dc1-0', 0, ''),
    ('read newcomer', 'SUCCESS', 0.10256895520111112,
     'se-spain-dc1-0', 0, ''),
    ('duplicate create', 'ENTRY_ALREADY_EXISTS', 0.0007732668615864635,
     '', 0, 'entry already exists'),
    ('modify known', 'SUCCESS', 0.0005784570725768934,
     'se-germany-dc1-0', 0, ''),
    ('modify unknown', 'NO_SUCH_OBJECT', 0.00037422627678990183,
     '', 0, 'unknown identity'),
    ('delete other', 'SUCCESS', 0.058019922257567524,
     'se-spain-dc1-1', 0, ''),
    ('read deleted', 'NO_SUCH_OBJECT', 0.0005079930223684803,
     '', 0, 'unknown identity'),
    ('base scope search', 'SUCCESS', 0.00045229829911297426,
     'dit-index', 0, ''),
    ('write from cut-off side', 'UNAVAILABLE', 0.0003700434096544636,
     '', 0, 'master unreachable (partitioned away)'),
    ('write after heal', 'SUCCESS', 0.06673472534878117,
     'se-germany-dc1-0', 0, ''),
    ('deadline past at admission', 'TIME_LIMIT_EXCEEDED', 0.0,
     '', 0, 'deadline expired'),
    ('no reachable PoA', 'UNAVAILABLE', 0.0,
     '', 0, 'no reachable PoA'),
    ('PoA failed in flight', 'UNAVAILABLE', 0.00029455436953906844,
     '', 0, 'PoA poa-germany-dc1 failed in flight'),
    ('malformed filter', 'UNWILLING_TO_PERFORM', 0.0004746940568773894,
     '', 0, 'malformed filter: unterminated simple filter'),
    ('session retry policy retries BUSY', 'SUCCESS', 0.00544548646966847,
     'se-germany-dc1-0', 1, ''),
]


class TestResultCodeRegression:
    def test_result_codes_unchanged_across_refactor(self):
        """The canned matrix pins the sequential walk's observable answers:
        codes, latencies, serving copies, attempts and diagnostics."""
        udr, profiles = build_udr(config=UDRConfig(seed=7))
        assert run_request_matrix(udr, profiles) == EXPECTED

    def test_result_codes_identical_with_cache_disabled(self):
        """The fast path is an optimisation, never a behaviour change."""
        cached_udr, cached_profiles = build_udr(config=UDRConfig(seed=7))
        plain_udr, plain_profiles = build_udr(config=UDRConfig(seed=7))
        plain_udr.pipeline.cache_for = lambda poa: None
        assert run_request_matrix(cached_udr, cached_profiles) == \
            run_request_matrix(plain_udr, plain_profiles)


# -- the batch path's own canned matrix ----------------------------------------------


def run_batch_request_matrix(udr, profiles, retry_policy=None):
    """Drive canned mixed-priority batches; return the result-code names.

    The first batch mixes all three priority classes (and so exercises the
    weighted dequeue's reordering); the second depends on the first batch's
    state; the third reproduces the prefer-consistency partition failure
    through the batch path.  Every item carries ``retry_policy``.
    """
    known, other, modified = profiles[0], profiles[1], profiles[2]
    generator = SubscriberGenerator(udr.config.regions, seed=987)
    newcomer = generator.generate_one()
    fe, ps = ClientType.APPLICATION_FE, ClientType.PROVISIONING
    home = fe_site_for(udr, known)
    remote = next(site for site in udr.topology.sites
                  if site.region.name != known.home_region)

    def dn(profile):
        return SubscriberSchema.subscriber_dn(profile.identities.imsi)

    first = [
        ("read known imsi", BatchItem(SearchRequest(dn=dn(known)), fe, home)),
        ("read unknown imsi", BatchItem(SearchRequest(
            dn=SubscriberSchema.subscriber_dn("999999999999999")), fe, home)),
        ("bulk create newcomer", BatchItem(
            AddRequest(dn=dn(newcomer), attributes=newcomer.to_record()),
            ps, home, priority=Priority.BULK)),
        ("duplicate create", BatchItem(
            AddRequest(dn=dn(known), attributes=known.to_record()), ps, home)),
        ("modify known", BatchItem(
            ModifyRequest(dn=dn(modified), changes={"servingMsc": "msc-1"}),
            ps, home)),
        ("modify unknown", BatchItem(
            ModifyRequest(dn=SubscriberSchema.subscriber_dn("999999999999999"),
                          changes={"servingMsc": "x"}), ps, home)),
        ("bulk delete other", BatchItem(DeleteRequest(dn=dn(other)), ps, home,
                                        priority=Priority.BULK)),
        ("base scope search", BatchItem(SearchRequest(
            dn=SubscriberSchema.BASE_DN, filter_text="(objectClass=*)"),
            fe, home)),
    ]
    second = [
        ("read newcomer", BatchItem(SearchRequest(dn=dn(newcomer)),
                                    fe, home)),
        ("read deleted", BatchItem(SearchRequest(dn=dn(other)), fe, home)),
        ("repeat read (cache hit path)", BatchItem(
            SearchRequest(dn=dn(known)), fe, home)),
    ]
    codes = []
    for batch in (first, second):
        responses = run_to_completion(udr, udr.pipeline.execute_batch(
            [replace(item, retry_policy=retry_policy)
             for _label, item in batch]))
        codes.extend((label, response.result_code.name)
                     for (label, _item), response in zip(batch, responses))

    region = udr.topology.region(known.home_region)
    partition = NetworkPartition.splitting_regions(udr.topology, region)
    udr.network.apply_partition(partition)
    cut_off = [BatchItem(ModifyRequest(dn=dn(known),
                                       changes={"svcBarPremium": True}),
                         ps, remote, retry_policy=retry_policy)]
    responses = run_to_completion(udr, udr.pipeline.execute_batch(cut_off))
    codes.append(("write from cut-off side", responses[0].result_code.name))
    udr.network.heal_partition(partition)
    responses = run_to_completion(udr, udr.pipeline.execute_batch(cut_off))
    codes.append(("write after heal", responses[0].result_code.name))
    return codes


BATCH_EXPECTED = [
    ("read known imsi", "SUCCESS"),
    ("read unknown imsi", "NO_SUCH_OBJECT"),
    ("bulk create newcomer", "SUCCESS"),
    ("duplicate create", "ENTRY_ALREADY_EXISTS"),
    ("modify known", "SUCCESS"),
    ("modify unknown", "NO_SUCH_OBJECT"),
    ("bulk delete other", "SUCCESS"),
    ("base scope search", "SUCCESS"),
    ("read newcomer", "SUCCESS"),
    ("read deleted", "NO_SUCH_OBJECT"),
    ("repeat read (cache hit path)", "SUCCESS"),
    ("write from cut-off side", "UNAVAILABLE"),
    ("write after heal", "SUCCESS"),
]


def crash_master_of(udr, profile):
    """Crash the master element holding ``profile``; returns its name."""
    element = udr.deployment.authoritative_lookup(
        "imsi", profile.identities.imsi)
    master = udr.deployment.replica_set_of_element(element).master_element_name
    udr.crash_element(master)
    return master


class TestBatchResultCodeRegression:
    def test_mixed_priority_batch_codes(self):
        udr, profiles = build_udr(config=UDRConfig(seed=7))
        assert run_batch_request_matrix(udr, profiles) == BATCH_EXPECTED

    def test_mixed_priority_batch_codes_with_retry_policy(self):
        """Retries only act on transient codes: the canned matrix's business
        failures (unknown identity, duplicate create...) are untouched, and
        the partition row still exhausts to UNAVAILABLE."""
        udr, profiles = build_udr(config=UDRConfig(seed=7))
        assert run_batch_request_matrix(
            udr, profiles, RetryPolicy(max_retries=1, backoff_tick=0.01)) \
            == BATCH_EXPECTED

    def test_retry_exhaustion_yields_unavailable(self):
        policy = RetryPolicy(max_retries=2, backoff_tick=0.01)
        udr, profiles = build_udr(config=UDRConfig(seed=7))
        profile = profiles[0]
        crash_master_of(udr, profile)
        # A provisioning client may not read from a slave, and nobody
        # promotes a new master: every retry fails the same way.
        item = BatchItem(
            SearchRequest(dn=SubscriberSchema.subscriber_dn(
                profile.identities.imsi)),
            ClientType.PROVISIONING, fe_site_for(udr, profile),
            retry_policy=policy)
        responses = run_to_completion(udr, udr.pipeline.execute_batch([item]))
        assert responses[0].result_code is ResultCode.UNAVAILABLE
        assert udr.metrics.counter("batch.retries") == policy.max_retries
        assert udr.metrics.counter("batch.retry_exhausted") == 1
        assert udr.metrics.counter("batch.retry_succeeded") == 0

    def test_post_commit_replication_failure_is_not_retried(self):
        """A synchronous-replication shortfall surfaces *after* the intra-SE
        commit: retrying would re-drive a non-idempotent write against its
        own first attempt (a DELETE would come back NO_SUCH_OBJECT).  The
        batch path must answer the sequential code, UNAVAILABLE, unretried."""
        from repro.core import ReplicationMode
        config_kwargs = dict(
            seed=7, replication_mode=ReplicationMode.QUORUM)
        seq_udr, seq_profiles = build_udr(config=UDRConfig(**config_kwargs))
        bat_udr, _ = build_udr(config=UDRConfig(**config_kwargs))
        profile = seq_profiles[0]

        def delete_item(udr):
            element = udr.deployment.authoritative_lookup(
                "imsi", profile.identities.imsi)
            replica_set = udr.deployment.replica_set_of_element(element)
            slave = replica_set.slave_names()[0]
            udr.crash_element(slave)  # quorum of 2 is now impossible
            return BatchItem(
                DeleteRequest(dn=SubscriberSchema.subscriber_dn(
                    profile.identities.imsi)),
                ClientType.PROVISIONING, fe_site_for(udr, profile))

        sequential = run_to_completion(
            seq_udr, seq_udr.pipeline.execute(delete_item(seq_udr).request,
                                              ClientType.PROVISIONING,
                                              fe_site_for(seq_udr, profile)))
        batched = run_to_completion(
            bat_udr, bat_udr.pipeline.execute_batch([replace(
                delete_item(bat_udr),
                retry_policy=RetryPolicy(max_retries=2, backoff_tick=0.01))]))
        assert sequential.result_code is ResultCode.UNAVAILABLE
        assert batched[0].result_code is ResultCode.UNAVAILABLE
        assert bat_udr.metrics.counter("batch.retries") == 0

    def test_fail_over_mid_batch_relocates_via_invalidated_cache(self):
        """A fail-over between attempts must be picked up by the retry: the
        first attempt uses the (stale) cached location and fails against the
        crashed master; the fail-over invalidates the cache; the retry
        re-locates through the locator and succeeds on the new master."""
        udr, profiles = build_udr(config=UDRConfig(seed=7))
        profile = profiles[0]
        site = fe_site_for(udr, profile)
        request = SearchRequest(dn=SubscriberSchema.subscriber_dn(
            profile.identities.imsi))
        # Warm the serving PoA's cache, then crash the master un-failed-over.
        run_to_completion(udr, udr.pipeline.execute(
            request, ClientType.APPLICATION_FE, site))
        master = crash_master_of(udr, profile)
        poa = next(p for p in udr.points_of_access if p.site == site)
        cache = udr.location_caches.cache(poa.name)
        assert cache.get("imsi", profile.identities.imsi) is not None
        lookups_before = poa.locator.stats.lookups
        invalidations_before = cache.stats.invalidations

        def fail_over_later():
            yield udr.sim.timeout(1.0)  # within the 4 s retry backoff
            udr.fail_over(master)

        udr.sim.process(fail_over_later())
        item = BatchItem(request, ClientType.PROVISIONING, site,
                         retry_policy=RetryPolicy(max_retries=1,
                                                  backoff_tick=4.0))
        responses = run_to_completion(udr, udr.pipeline.execute_batch([item]))
        assert responses[0].result_code is ResultCode.SUCCESS
        assert responses[0].attempts == 1, \
            "the response reports the retry the batch pipeline spent"
        assert udr.metrics.counter("batch.retries") == 1
        assert udr.metrics.counter("batch.retry_succeeded") == 1
        assert cache.stats.invalidations > invalidations_before, \
            "the fail-over dropped the stale cached location"
        assert poa.locator.stats.lookups == lookups_before + 1, \
            "the retry re-resolved through the locator, not the cache"
