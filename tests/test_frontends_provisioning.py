"""Integration tests for application front-ends and the provisioning system."""

import pytest

from repro.core import ClientType
from repro.frontends import (
    ApplicationFrontEnd,
    HlrFrontEnd,
    HssFrontEnd,
    ProcedureCatalogue,
)
from repro.net import NetworkPartition
from repro.provisioning import (
    BatchRun,
    ChangeServices,
    CreateSubscription,
    ProvisioningSystem,
    SwapSim,
    TerminateSubscription,
)
from repro.subscriber import SubscriberGenerator

from tests.conftest import build_udr, fe_site_for


def run(udr, generator, horizon=600.0):
    process = udr.sim.process(generator)
    udr.sim.run_until_triggered(process, limit=udr.sim.now + horizon)
    assert process.triggered, "simulation horizon reached before completion"
    if not process.ok:
        raise process.exception
    return process.value


class TestProcedureCatalogue:
    def test_classic_procedures_cost_one_to_three_operations(self):
        """Paper section 3.5: typical procedures cause 1-3 LDAP operations."""
        generator = SubscriberGenerator(["spain"], seed=1)
        profile = generator.generate_one()
        for procedure, _weight in ProcedureCatalogue.classic_mix().items():
            assert 1 <= procedure.operation_count(profile) <= 3

    def test_ims_procedures_cost_five_or_six_operations(self):
        """Paper footnote 8: IMS procedures cause 5 or 6 LDAP operations."""
        generator = SubscriberGenerator(["spain"], seed=1)
        profile = generator.generate_one()
        for procedure in (ProcedureCatalogue.IMS_REGISTRATION,
                          ProcedureCatalogue.IMS_SESSION):
            assert 5 <= procedure.operation_count(profile) <= 6

    def test_average_operations_ordering(self):
        generator = SubscriberGenerator(["spain"], seed=1)
        profile = generator.generate_one()
        classic = ProcedureCatalogue.average_operations(
            ProcedureCatalogue.classic_mix(), profile)
        ims = ProcedureCatalogue.average_operations(
            ProcedureCatalogue.ims_mix(), profile)
        assert 1.0 <= classic <= 3.0
        assert ims > classic

    def test_by_name_lookup(self):
        assert ProcedureCatalogue.by_name("attach") is ProcedureCatalogue.ATTACH
        with pytest.raises(KeyError):
            ProcedureCatalogue.by_name("teleport")

    def test_pick_respects_weights(self):
        from repro.sim import Simulation
        rng = Simulation(seed=3).rng("mix")
        mix = {ProcedureCatalogue.AUTHENTICATION: 1.0}
        assert ProcedureCatalogue.pick(mix, rng) is \
            ProcedureCatalogue.AUTHENTICATION


class TestApplicationFrontEnd:
    def test_location_update_succeeds_and_updates_record(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        fe = HlrFrontEnd("hlr-fe-1", udr, fe_site_for(udr, profile))
        outcome = run(udr, fe.run_procedure(
            ProcedureCatalogue.LOCATION_UPDATE, profile,
            serving_node="msc-77"))
        assert outcome.succeeded
        assert outcome.operations == 2
        record = udr.subscriber_record(profile.identities.imsi)
        assert record["servingMsc"] == "msc-77"
        assert fe.success_ratio() == 1.0

    def test_ims_registration_marks_subscriber_registered(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = profiles[0]
        fe = HssFrontEnd("hss-fe-1", udr, fe_site_for(udr, profile))
        outcome = run(udr, fe.run_procedure(
            ProcedureCatalogue.IMS_REGISTRATION, profile))
        assert outcome.succeeded
        record = udr.subscriber_record(profile.identities.imsi)
        assert record["imsRegistered"] is True

    def test_procedure_fails_for_unknown_subscriber(self, fresh_udr):
        udr, _ = fresh_udr
        generator = SubscriberGenerator(udr.config.regions, seed=999)
        stranger = generator.generate_one()
        fe = HlrFrontEnd("hlr-fe-1", udr, udr.topology.sites[0])
        outcome = run(udr, fe.run_procedure(
            ProcedureCatalogue.AUTHENTICATION, stranger))
        assert not outcome.succeeded
        assert outcome.failed_operation == 0
        assert fe.success_ratio() == 0.0

    def test_traffic_driver_generates_procedures(self, fresh_udr):
        udr, profiles = fresh_udr
        home = [p for p in profiles if p.home_region == "spain"] or profiles
        fe = HlrFrontEnd("hlr-fe-1", udr, udr.topology.sites[0])
        run(udr, fe.traffic_driver(home, rate_per_second=5.0, duration=10.0),
            horizon=200.0)
        assert fe.procedures_attempted > 10
        assert udr.metrics.outcomes("fe_procedures").attempted == \
            fe.procedures_attempted

    def test_traffic_driver_validates_inputs(self, fresh_udr):
        udr, profiles = fresh_udr
        fe = ApplicationFrontEnd("fe", udr, udr.topology.sites[0])
        with pytest.raises(ValueError):
            run(udr, fe.traffic_driver(profiles, rate_per_second=0, duration=1))
        with pytest.raises(ValueError):
            run(udr, fe.traffic_driver([], rate_per_second=1, duration=1))

    def test_front_end_mixes_differ(self):
        assert HlrFrontEnd.default_mix() != HssFrontEnd.default_mix()


class TestProvisioningOperations:
    def make_ps(self, udr, **kwargs):
        return ProvisioningSystem("ps-1", udr, udr.topology.sites[0], **kwargs)

    def test_create_subscription(self, fresh_udr):
        udr, _ = fresh_udr
        generator = SubscriberGenerator(udr.config.regions, seed=777)
        new_profile = generator.generate_one()
        ps = self.make_ps(udr)
        outcome = run(udr, ps.provision(CreateSubscription(new_profile)))
        assert outcome.succeeded
        assert udr.subscriber_record(new_profile.identities.imsi) is not None
        assert ps.success_ratio() == 1.0

    def test_change_services(self, fresh_udr):
        udr, profiles = fresh_udr
        ps = self.make_ps(udr)
        outcome = run(udr, ps.provision(ChangeServices(
            profiles[0], changes={"svcBarPremium": True})))
        assert outcome.succeeded
        record = udr.subscriber_record(profiles[0].identities.imsi)
        assert record["svcBarPremium"] is True

    def test_terminate_subscription(self, fresh_udr):
        udr, profiles = fresh_udr
        ps = self.make_ps(udr)
        outcome = run(udr, ps.provision(TerminateSubscription(profiles[1])))
        assert outcome.succeeded
        assert udr.subscriber_record(profiles[1].identities.imsi) is None

    def test_swap_sim_is_multi_write_transaction(self, fresh_udr):
        udr, profiles = fresh_udr
        ps = self.make_ps(udr)
        operation = SwapSim(profiles[0], new_imsi="214079999999999")
        assert operation.write_count() == 2
        outcome = run(udr, ps.provision(operation))
        assert outcome.succeeded
        assert udr.subscriber_record("214079999999999") is not None

    def test_udc_needs_fewer_writes_than_pre_udc(self, fresh_udr):
        """Section 2.4: one UDR write vs writes on HLR/HSS plus every SLF."""
        udr, profiles = fresh_udr
        operation = CreateSubscription(profiles[0])
        assert operation.write_count() == 1
        assert operation.pre_udc_write_count() >= 4

    def test_provisioning_fails_during_partition(self, fresh_udr):
        """Section 4.1: provisioning writes almost always fail on partition."""
        udr, profiles = fresh_udr
        profile = next(p for p in profiles if p.home_region != "spain")
        ps = self.make_ps(udr)  # PS sits in spain
        region = udr.topology.region(profile.home_region)
        udr.network.apply_partition(
            NetworkPartition.splitting_regions(udr.topology, region))
        outcome = run(udr, ps.provision(ChangeServices(
            profile, changes={"svcBarPremium": True})))
        assert not outcome.succeeded
        assert outcome.needs_manual_intervention
        assert ps.manual_interventions == 1

    def test_retry_succeeds_after_partition_heals(self, fresh_udr):
        udr, profiles = fresh_udr
        profile = next(p for p in profiles if p.home_region != "spain")
        ps = self.make_ps(udr, max_retries=2, retry_delay=5.0)
        region = udr.topology.region(profile.home_region)
        partition = NetworkPartition.splitting_regions(udr.topology, region)
        udr.network.apply_partition(partition)

        def heal_later(sim):
            yield sim.timeout(3.0)
            udr.network.heal_partition(partition)

        udr.sim.process(heal_later(udr.sim))
        outcome = run(udr, ps.provision(ChangeServices(
            profile, changes={"svcBarPremium": True})))
        assert outcome.succeeded
        assert outcome.attempts >= 2

    def test_invalid_parameters_rejected(self, fresh_udr):
        udr, _ = fresh_udr
        with pytest.raises(ValueError):
            ProvisioningSystem("ps", udr, udr.topology.sites[0], max_retries=-1)


class TestBatchProvisioning:
    def test_batch_of_creates_succeeds(self, fresh_udr):
        udr, _ = fresh_udr
        generator = SubscriberGenerator(udr.config.regions, seed=555)
        operations = [CreateSubscription(profile)
                      for profile in generator.generate(10)]
        ps = ProvisioningSystem("ps-1", udr, udr.topology.sites[0])
        report = run(udr, BatchRun(ps, operations).run())
        assert report.success_ratio == 1.0
        assert not report.batch_failed
        assert report.duration > 0

    def test_batch_hit_by_partition_reports_failed_parts(self, fresh_udr):
        """Section 4.1: a short glitch leaves failed parts to fix by hand."""
        udr, _ = fresh_udr
        generator = SubscriberGenerator(("sweden",), seed=556)
        operations = [CreateSubscription(profile)
                      for profile in generator.generate(20)]
        ps = ProvisioningSystem("ps-1", udr, udr.topology.sites[0])
        sweden = udr.topology.region("sweden")
        partition = NetworkPartition.splitting_regions(udr.topology, sweden)

        def glitch(sim):
            yield sim.timeout(0.5)
            udr.network.apply_partition(partition)
            yield sim.timeout(30.0)
            udr.network.heal_partition(partition)

        udr.sim.process(glitch(udr.sim))
        report = run(udr, BatchRun(ps, operations, pacing=2.0).run(),
                     horizon=600.0)
        assert report.failed > 0
        assert report.batch_failed
        assert report.manual_interventions == report.failed

    def test_batch_abort_threshold(self, fresh_udr):
        udr, _ = fresh_udr
        generator = SubscriberGenerator(("germany",), seed=557)
        operations = [CreateSubscription(profile)
                      for profile in generator.generate(10)]
        ps = ProvisioningSystem("ps-1", udr, udr.topology.sites[0])
        germany = udr.topology.region("germany")
        udr.network.apply_partition(
            NetworkPartition.splitting_regions(udr.topology, germany))
        report = run(udr, BatchRun(
            ps, operations, abort_after_consecutive_failures=3).run(),
            horizon=600.0)
        assert report.aborted
        assert report.failed == 3

    def test_pipelined_batch_matches_sequential_outcomes(self, fresh_udr):
        """The pipelined run reports the same per-operation outcomes as the
        sequential one, in input order, while batching the admission."""
        udr, profiles = fresh_udr
        generator = SubscriberGenerator(udr.config.regions, seed=558)
        operations = [CreateSubscription(profile)
                      for profile in generator.generate(6)]
        operations += [ChangeServices(profile, changes={"svcBarPremium": True})
                       for profile in profiles[:4]]
        operations.append(SwapSim(profiles[10]))  # multi-request fallback
        ps = ProvisioningSystem("ps-pipe", udr, udr.topology.sites[0])
        outcomes = run(udr, ps.provision_pipelined(operations))
        assert len(outcomes) == len(operations)
        assert [outcome.operation for outcome in outcomes] == \
            [operation.name for operation in operations]
        assert all(outcome.succeeded for outcome in outcomes)
        assert ps.operations_attempted == len(operations)
        swap_requests = len(operations[-1].operations())
        assert udr.metrics.counter("batch.admitted") == \
            len(operations) - 1 + swap_requests, \
            "every request is admitted by a wave: the single-request " \
            "operations in batches, the swap's requests one slot each"
        assert udr.metrics.counter("batch.batches") == 1, \
            "the ten single-request operations rode one explicit batch"
        assert udr.metrics.counters_with_prefix("batch.priority.bulk")

    def test_pipelined_preserves_execution_order_across_fallbacks(
            self, fresh_udr):
        """A multi-request operation must not be reordered after later
        single-request ones: SwapSim(X) then TerminateSubscription(X) only
        works if the swap really executes first."""
        udr, profiles = fresh_udr
        subject = profiles[5]
        operations = [SwapSim(subject), TerminateSubscription(subject)]
        ps = ProvisioningSystem("ps-order", udr, udr.topology.sites[0])
        outcomes = run(udr, ps.provision_pipelined(operations))
        assert all(outcome.succeeded for outcome in outcomes)
        assert ps.manual_interventions == 0

    def test_pipelined_honours_ps_retry_budget(self, fresh_udr):
        """The PS-level max_retries re-batches failed operations, like the
        sequential provision() loop re-attempts them."""
        udr, profiles = fresh_udr
        subject = profiles[0]
        element = udr.deployment.authoritative_lookup(
            "imsi", subject.identities.imsi)
        master = udr.deployment.replica_set_of_element(
            element).master_element_name
        udr.crash_element(master)

        def fail_over_later():
            yield udr.sim.timeout(0.5)  # within the PS retry delay
            udr.fail_over(master)

        udr.sim.process(fail_over_later())
        ps = ProvisioningSystem("ps-retry", udr, udr.topology.sites[0],
                                max_retries=2, retry_delay=2.0)
        bystander = profiles[1]
        outcomes = run(udr, ps.provision_pipelined([
            ChangeServices(subject, changes={"svcBarPremium": True}),
            ChangeServices(bystander, changes={"svcBarPremium": True}),
        ]))
        assert all(outcome.succeeded for outcome in outcomes)
        assert outcomes[0].attempts == 2
        assert outcomes[1].attempts == 1
        assert outcomes[1].latency < outcomes[0].latency, \
            "an operation done in the first wave does not inherit the " \
            "retried operation's delay"
        assert ps.manual_interventions == 0

    def test_pipelined_abort_tallies_the_executed_slice(self, fresh_udr):
        """The abort threshold stops further slices, but a slice that
        already executed against the UDR is fully reflected in the report."""
        udr, _ = fresh_udr
        unknown = SubscriberGenerator(udr.config.regions,
                                      seed=560).generate(2)
        fresh = SubscriberGenerator(udr.config.regions, seed=561).generate(3)
        operations = [ChangeServices(profile, changes={"svcBarPremium": True})
                      for profile in unknown]  # fail: never provisioned
        operations += [CreateSubscription(profile) for profile in fresh]
        ps = ProvisioningSystem("ps-abort", udr, udr.topology.sites[0])
        report = run(udr, BatchRun(
            ps, operations, pipelined=True,
            abort_after_consecutive_failures=2).run())
        assert report.aborted
        assert report.failed == 2
        assert report.succeeded == 3, \
            "the creates committed in the same slice stay tallied"
        assert ps.operations_succeeded == 3

    def test_pipelined_batch_run_reports_like_sequential(self, fresh_udr):
        udr, _ = fresh_udr
        generator = SubscriberGenerator(udr.config.regions, seed=559)
        operations = [CreateSubscription(profile)
                      for profile in generator.generate(12)]
        ps = ProvisioningSystem("ps-pipe", udr, udr.topology.sites[0])
        report = run(udr, BatchRun(ps, operations, pipelined=True).run())
        assert report.success_ratio == 1.0
        assert not report.batch_failed
        assert report.total_operations == len(operations)

    def test_invalid_batch_parameters(self, fresh_udr):
        udr, _ = fresh_udr
        ps = ProvisioningSystem("ps-1", udr, udr.topology.sites[0])
        with pytest.raises(ValueError):
            BatchRun(ps, [], pacing=-1.0)
        with pytest.raises(ValueError):
            BatchRun(ps, [], abort_after_consecutive_failures=0)
