"""Tests for the staged operation pipeline: stages in isolation, the per-PoA
location-cache fast path and its invalidation, and batched metrics."""

import pytest

from repro.cluster.balancer import closest_point_of_access
from repro.core import BatchItem, ClientType, RetryPolicy, UDRConfig
from repro.core.pipeline import OperationContext, OperationFailure
from repro.directory.errors import LocatorSyncInProgress
from repro.ldap import (ModifyRequest, ResultCode, SearchRequest,
                        SubscriberSchema)
from repro.ldap.server import OperationPlan, PlanKind
from repro.net import NetworkPartition

from tests.conftest import build_udr, fe_site_for, run_to_completion


def search_for(profile):
    return SearchRequest(dn=SubscriberSchema.subscriber_dn(
        profile.identities.imsi))


def read_plan(profile):
    return OperationPlan(kind=PlanKind.READ, identity_type="imsi",
                         identity_value=profile.identities.imsi)


def make_context(udr, profile, poa=None):
    ctx = OperationContext(search_for(profile), ClientType.APPLICATION_FE,
                           udr.topology.sites[0], start=udr.sim.now)
    ctx.poa = poa or udr.points_of_access[0]
    ctx.plan = read_plan(profile)
    return ctx


class TestLocationCacheFastPath:
    def test_repeat_read_hits_cache_and_skips_locator(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        site = fe_site_for(udr, profile)
        run_to_completion(udr, udr.pipeline.execute(
            search_for(profile), ClientType.APPLICATION_FE, site))
        serving_poa = next(poa for poa in udr.points_of_access
                           if poa.site == site)
        cache = udr.location_caches.cache(serving_poa.name)
        assert cache is not None
        assert cache.stats.misses == 1
        lookups_before = serving_poa.locator.stats.lookups
        run_to_completion(udr, udr.pipeline.execute(
            search_for(profile), ClientType.APPLICATION_FE, site))
        assert cache.stats.hits == 1
        assert serving_poa.locator.stats.lookups == lookups_before, \
            "the repeat resolution was served by the cache, not the locator"

    def test_cache_disabled_by_config(self):
        """A pipeline without a PoA cache still answers: the cache is an
        always-on fast path, not a correctness dependency."""
        udr, profiles = build_udr(config=UDRConfig(seed=7))
        udr.pipeline.cache_for = lambda poa: None
        profile = profiles[0]
        site = fe_site_for(udr, profile)
        for _ in range(2):
            response = run_to_completion(udr, udr.pipeline.execute(
                search_for(profile), ClientType.APPLICATION_FE, site))
            assert response.ok
        assert len(udr.location_caches) == 0

    def test_bounded_cache_capacity_respected(self):
        config = UDRConfig(location_cache_capacity=1, seed=7)
        udr, profiles = build_udr(config=config)
        same_region = [p for p in profiles
                       if p.home_region == profiles[0].home_region][:2]
        site = fe_site_for(udr, same_region[0])
        for profile in same_region:
            run_to_completion(udr, udr.pipeline.execute(
                search_for(profile), ClientType.APPLICATION_FE, site))
        serving_poa = next(poa for poa in udr.points_of_access
                           if poa.site == site)
        cache = udr.location_caches.cache(serving_poa.name)
        assert len(cache) == 1


class TestCacheInvalidation:
    def test_fail_over_invalidates_cached_locations(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        imsi = profile.identities.imsi
        site = fe_site_for(udr, profile)
        run_to_completion(udr, udr.pipeline.execute(
            search_for(profile), ClientType.APPLICATION_FE, site))
        element_name = next(iter(udr.locators.values())).locate("imsi", imsi)
        assert any(cache.get("imsi", imsi) == element_name
                   for cache in udr.location_caches.caches.values())
        udr.crash_element(element_name)
        promotions = udr.fail_over(element_name)
        assert promotions
        for cache in udr.location_caches.caches.values():
            assert cache.get("imsi", imsi) is None, \
                "fail-over dropped the cached location"
        # The next read re-resolves through the locator and still succeeds.
        response = run_to_completion(udr, udr.pipeline.execute(
            search_for(profile), ClientType.APPLICATION_FE, site))
        assert response.ok

    def test_delete_invalidates_every_poa_cache(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[1]
        imsi = profile.identities.imsi
        # Warm two different PoA caches with the subscriber's location.
        for site in udr.topology.sites[:2]:
            run_to_completion(udr, udr.pipeline.execute(
                search_for(profile), ClientType.APPLICATION_FE, site))
        from repro.ldap import DeleteRequest
        run_to_completion(udr, udr.pipeline.execute(
            DeleteRequest(dn=SubscriberSchema.subscriber_dn(imsi)),
            ClientType.PROVISIONING, udr.topology.sites[0]))
        for cache in udr.location_caches.caches.values():
            assert cache.get("imsi", imsi) is None

    def test_syncing_locator_bypasses_and_clears_the_cache(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        poa = udr.points_of_access[0]
        cache = udr.location_caches.for_poa(poa)
        cache.store("imsi", profile.identities.imsi, "se-stale")
        poa.locator.begin_sync(total_entries=100)
        ctx = make_context(udr, profile, poa=poa)
        with pytest.raises(OperationFailure) as failure:
            udr.pipeline.locate.run(ctx)
        assert failure.value.code is ResultCode.BUSY
        assert len(cache) == 0, \
            "entries cached before the sync began are dropped"
        poa.locator.complete_sync()


class TestStagesInIsolation:
    def test_locate_stage_unknown_identity_maps_to_no_such_object(
            self, fresh_udr):
        udr, profiles = fresh_udr
        ctx = make_context(udr, profiles[0])
        ctx.plan = OperationPlan(kind=PlanKind.READ, identity_type="imsi",
                                 identity_value="999999999999999")
        with pytest.raises(OperationFailure) as failure:
            udr.pipeline.locate.run(ctx)
        assert failure.value.code is ResultCode.NO_SUCH_OBJECT

    def test_locate_stage_lets_creates_through_on_unknown_identity(
            self, fresh_udr):
        udr, profiles = fresh_udr
        ctx = make_context(udr, profiles[0])
        ctx.plan = OperationPlan(kind=PlanKind.CREATE, identity_type="imsi",
                                 identity_value="999999999999999",
                                 attributes={"imsi": "999999999999999"})
        udr.pipeline.locate.run(ctx)
        assert ctx.located_element is None

    def test_admission_fails_without_a_serving_poa(self, fresh_udr):
        udr, profiles = fresh_udr
        for poa in udr.points_of_access:
            poa.fail()
        response = run_to_completion(udr, udr.pipeline.execute(
            search_for(profiles[0]), ClientType.APPLICATION_FE,
            udr.topology.sites[0]))
        assert response.result_code is ResultCode.UNAVAILABLE
        assert response.diagnostic_message == "no reachable PoA"

    def test_respond_stage_counts_lost_responses(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        poa = udr.points_of_access[0]
        client_site = next(site for site in udr.topology.sites
                           if site.region != poa.site.region)
        ctx = OperationContext(search_for(profile),
                               ClientType.APPLICATION_FE, client_site,
                               start=udr.sim.now)
        ctx.poa = poa
        partition = NetworkPartition.splitting_regions(udr.topology,
                                                       poa.site.region)
        udr.network.apply_partition(partition)
        run_to_completion(udr, udr.pipeline.respond.run_group(
            ctx.poa.site, ctx.client_site, 1))
        udr.flush_metrics()
        assert udr.metrics.counter("response_lost") == 1


class TestBatchedMetrics:
    def test_default_batch_flushes_per_request(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        run_to_completion(udr, udr.pipeline.execute(
            search_for(profile), ClientType.APPLICATION_FE,
            fe_site_for(udr, profile)))
        outcomes = udr.metrics.outcomes(ClientType.APPLICATION_FE.value)
        assert outcomes.attempted == 1

    def test_stop_flushes_pending_metrics(self, fresh_udr):
        udr, _profiles = fresh_udr
        udr.pipeline.batch.increment("response_lost")
        assert udr.metrics.counter("response_lost") == 0, \
            "recorded between waves, not flushed yet"
        udr.stop()
        assert udr.metrics.counter("response_lost") == 1


class TestOneWalk:
    """A single request is a one-slot wave.  Each point where the
    sequential walk and the wave used to differ is decided once, for every
    path."""

    def test_expired_before_admission_costs_no_hop_on_every_path(
            self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        site = fe_site_for(udr, profile)
        fe = ClientType.APPLICATION_FE
        messages = udr.network.stats.total_messages()
        single = run_to_completion(udr, udr.pipeline.execute(
            search_for(profile), fe, site, deadline=udr.sim.now))
        assert udr.network.stats.total_messages() == messages, \
            "no PoA hop, no answer transfer"
        batch = run_to_completion(udr, udr.pipeline.execute_batch([
            BatchItem(search_for(profile), fe, site, deadline=udr.sim.now),
            BatchItem(search_for(profile), fe, site)]))
        for response in (single, batch[0]):
            assert response.result_code is ResultCode.TIME_LIMIT_EXCEEDED
            assert response.latency == 0.0
            assert response.diagnostic_message == "deadline expired"
        assert batch[1].result_code is ResultCode.SUCCESS
        assert udr.metrics.counter("api.deadline_expired") == 2
        assert udr.metrics.counter("batch.admitted") == 1, \
            "only the live request of the batch was admitted"

    def test_config_retry_policy_applies_to_single_requests(self):
        """A retry policy handed to a single ``execute`` drives retries."""
        udr, profiles = build_udr(config=UDRConfig(seed=7))
        policy = RetryPolicy(max_retries=2, backoff_tick=0.005)
        profile = profiles[0]
        site = fe_site_for(udr, profile)
        serving = closest_point_of_access(udr.network, site,
                                          udr.points_of_access)

        def sync_serving_locator():
            # Syncing from just after admission chose the PoA until before
            # the first retry's backoff ends.
            yield udr.sim.timeout(1e-9)
            serving.locator.begin_sync(total_entries=100)
            yield udr.sim.timeout(0.001)
            serving.locator.complete_sync()

        udr.sim.process(sync_serving_locator())
        response = run_to_completion(udr, udr.pipeline.execute(
            search_for(profile), ClientType.APPLICATION_FE, site,
            retry_policy=policy))
        assert response.result_code is ResultCode.SUCCESS
        assert response.attempts == 1, "the BUSY first attempt was retried"
        assert udr.metrics.counter("batch.retries") == 1
        assert udr.metrics.counter("batch.retry_succeeded") == 1

    def test_every_wave_records_admission_and_priority_once(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        site = fe_site_for(udr, profile)
        flushes = udr.pipeline.batch.flushes
        run_to_completion(udr, udr.pipeline.execute(
            search_for(profile), ClientType.APPLICATION_FE, site))
        run_to_completion(udr, udr.pipeline.execute(
            SearchRequest(dn=SubscriberSchema.subscriber_dn(
                "999999999999999")), ClientType.APPLICATION_FE, site))
        assert udr.pipeline.batch.flushes == flushes + 2
        assert udr.pipeline.batch.pending == 0
        assert udr.metrics.counter("batch.admitted") == 2
        assert udr.metrics.counter(
            "batch.priority.signalling.completed") == 2
        assert udr.metrics.counter("batch.priority.signalling.failed") == 1

    def test_lone_write_commits_as_a_group_of_one(self):
        udr, profiles = build_udr(config=UDRConfig(seed=7,
                                                   coalesce_writes=True))
        profile = profiles[0]
        site = fe_site_for(udr, profile)
        dn = SubscriberSchema.subscriber_dn(profile.identities.imsi)
        response = run_to_completion(udr, udr.pipeline.execute(
            ModifyRequest(dn=dn, changes={"servingMsc": "msc-9"}),
            ClientType.APPLICATION_FE, site))
        assert response.result_code is ResultCode.SUCCESS
        assert udr.metrics.counter("batch.coalesced.groups") == 1
        assert udr.metrics.counter("batch.coalesced.records") == 1
        read = run_to_completion(udr, udr.pipeline.execute(
            SearchRequest(dn=dn), ClientType.PROVISIONING, site))
        assert read.entry["servingMsc"] == "msc-9"
