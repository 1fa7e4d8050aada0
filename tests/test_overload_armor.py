"""PR 7's overload armor: admission quotas, deadline waking, shed mode.

Five suites pin the control loop down:

* **token-bucket admission** -- ``QoSProfile.rate_limit`` answers over-quota
  work ``BUSY`` at submit (an already-settled future, zero queue/pipeline
  work), refills with virtual time, and counts rejections per operation but
  throttle *episodes* once per transition;
* **expiry accounting** -- a ticket expiring in the dispatch queue records
  its queue time into the ``dispatcher.linger`` histogram and its failure
  under the submitting client's ``api.client.<name>.failed`` scope exactly
  once (the late-expiry bug family);
* **early wake** -- a queued ticket whose QoS deadline precedes the frozen
  linger deadline is answered ``TIME_LIMIT_EXCEEDED`` *at* its deadline,
  with no further arrivals needed, on both the grouped-source and the
  direct-ticket paths;
* **timeout hygiene / retry accounting** -- waves filling before their
  linger deadline cancel the armed timeout (the event heap stays bounded
  under a saturation soak), and a deadline-refused retry still reports the
  attempt it ran;
* **shed mode** -- EWMA trip/clear hysteresis, slave reads for master-only
  client types while shedding, and bulk deferral that never starves.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import QoSProfile, Read
from repro.core import (
    ClientType,
    DispatchMode,
    Priority,
    RateLimit,
    RetryPolicy,
    ShedPolicy,
    UDRConfig,
)
from repro.core.dispatcher import DispatchTicket, ShedController
from repro.core.pipeline import (
    BATCH_LINGER_TICK,
    BatchItem,
    OperationContext,
    OperationFailure,
)
from repro.ldap.operations import ResultCode

from tests.conftest import build_udr, run_to_completion


def read_request(profile):
    return Read(profile.identities.imsi).to_request()


# ------------------------------------------------- token-bucket admission

class TestTokenBucketAdmission:
    def test_over_quota_is_answered_busy_immediately(self):
        udr, profiles = build_udr(subscribers=8)
        client = udr.attach(
            "fe-quota", udr.topology.sites[0],
            qos=QoSProfile(rate_limit=RateLimit(rate_per_second=10.0,
                                                burst=2)))
        session = client.session()
        operation = Read(profiles[0].identities.imsi)
        admitted = [session.submit(operation), session.submit(operation)]
        rejected = session.submit(operation)
        # The rejection is synchronous: no simulation time ran yet.
        assert rejected.done
        response = rejected.result()
        assert response.result_code is ResultCode.BUSY
        assert response.latency == 0.0
        assert "admission quota" in response.diagnostic_message
        assert udr.metrics.counter("api.admission.rejected") == 1
        assert udr.metrics.counter("api.client.fe-quota.rejected") == 1
        for future in admitted:
            assert run_to_completion(udr, future.wait()).ok

    def test_bucket_refills_with_virtual_time(self):
        udr, profiles = build_udr(subscribers=8)
        client = udr.attach(
            "fe-refill", udr.topology.sites[0],
            qos=QoSProfile(rate_limit=RateLimit(rate_per_second=100.0,
                                                burst=1)))
        session = client.session()
        operation = Read(profiles[0].identities.imsi)
        first = session.submit(operation)
        assert session.submit(operation).result().result_code \
            is ResultCode.BUSY
        run_to_completion(udr, first.wait())
        udr.sim.run_for(0.05)  # 100/s refills the single-token bucket
        refilled = session.submit(operation)
        assert not refilled.done, "admitted, not answered at submit"
        assert run_to_completion(udr, refilled.wait()).ok
        assert udr.metrics.counter("api.admission.rejected") == 1

    def test_throttling_counts_episodes_not_rejections(self):
        udr, profiles = build_udr(subscribers=8)
        client = udr.attach(
            "fe-episodes", udr.topology.sites[0],
            qos=QoSProfile(rate_limit=RateLimit(rate_per_second=100.0,
                                                burst=1)))
        session = client.session()
        operation = Read(profiles[0].identities.imsi)
        first = session.submit(operation)
        session.submit(operation)
        session.submit(operation)
        assert udr.metrics.counter("api.admission.rejected") == 2
        assert udr.metrics.counter("api.admission.throttled") == 1, \
            "one episode, however many rejections it spans"
        run_to_completion(udr, first.wait())
        udr.sim.run_for(0.05)
        admitted = session.submit(operation)   # leaves the episode
        session.submit(operation)              # enters a second one
        assert udr.metrics.counter("api.admission.throttled") == 2
        assert run_to_completion(udr, admitted.wait()).ok

    def test_rejected_work_never_reaches_the_dispatcher(self):
        config = UDRConfig(dispatch_mode=DispatchMode.DISPATCHER,
                           batch_linger_ticks=2)
        udr, profiles = build_udr(config, subscribers=8)
        client = udr.attach(
            "fe-gate", udr.topology.sites[0],
            qos=QoSProfile(rate_limit=RateLimit(rate_per_second=10.0,
                                                burst=1)))
        session = client.session()
        operation = Read(profiles[0].identities.imsi)
        admitted = session.submit(operation)
        rejected = session.submit(operation)
        assert rejected.result().result_code is ResultCode.BUSY
        assert udr.metrics.counter("dispatcher.enqueued") == 1, \
            "the over-quota operation never joined the queue"
        assert run_to_completion(udr, admitted.wait()).ok

    def test_without_rate_limit_admission_is_inert(self):
        udr, profiles = build_udr(subscribers=8)
        client = udr.attach("fe-plain", udr.topology.sites[0])
        session = client.session()
        for _ in range(3):
            run_to_completion(
                udr, session.call(Read(profiles[0].identities.imsi)))
        assert client._bucket_tokens is None, "no bucket was ever created"
        assert udr.metrics.counter("api.admission.rejected") == 0
        assert udr.metrics.counter("api.admission.throttled") == 0


# --------------------------------------------------- expiry accounting

class TestExpiryAccounting:
    def test_queue_expiry_records_linger_and_client_failure_once(self):
        config = UDRConfig(dispatch_mode=DispatchMode.DISPATCHER,
                           batch_linger_ticks=1000)
        udr, profiles = build_udr(config, subscribers=8)
        client = udr.attach("fe-exp", udr.topology.sites[0],
                            qos=QoSProfile(deadline_ticks=10))
        future = client.session().submit(Read(profiles[0].identities.imsi))
        response = run_to_completion(udr, future.wait())
        assert response.result_code is ResultCode.TIME_LIMIT_EXCEEDED
        linger = udr.metrics.latency("dispatcher.linger")
        assert linger.count == 1, \
            "the expired ticket's queue time reached the linger histogram"
        assert linger.mean() == pytest.approx(10 * BATCH_LINGER_TICK,
                                              abs=1e-6)
        # Counted once: by the dispatcher at expiry (it knows the source
        # tag), and *not* again when the session settles the future.
        assert udr.metrics.counter("api.client.fe-exp.failed") == 1
        assert udr.metrics.latency("api.client.fe-exp.latency").count == 1

    def test_direct_ticket_expiry_records_linger_only(self):
        config = UDRConfig(dispatch_mode=DispatchMode.DISPATCHER,
                           batch_linger_ticks=1000)
        udr, profiles = build_udr(config, subscribers=8)
        ticket = udr.dispatcher.submit(
            read_request(profiles[0]), ClientType.APPLICATION_FE,
            udr.topology.sites[0], deadline=udr.sim.now + 0.01)

        def wait():
            yield ticket.event

        run_to_completion(udr, wait())
        assert ticket.response.result_code is ResultCode.TIME_LIMIT_EXCEEDED
        assert ticket.expired_in_queue
        assert udr.metrics.latency("dispatcher.linger").count == 1
        assert udr.metrics.counter("dispatcher.deadline_expired") == 1
        # No source tag: nothing lands in any per-client scope.
        assert udr.metrics.counters_with_prefix("api.client.") == {}


# ----------------------------------------------------------- early wake

class TestEarlyWakeExpiry:
    """A deadline earlier than the frozen linger deadline is honoured at
    the deadline itself -- no later arrival, wave or linger expiry needed."""

    LINGER_TICKS = 2000  # 2 s: far past every deadline used below

    def _config(self):
        return UDRConfig(dispatch_mode=DispatchMode.DISPATCHER,
                         batch_linger_ticks=self.LINGER_TICKS)

    def test_sessioned_ticket_expires_at_its_deadline(self):
        udr, profiles = build_udr(self._config(), subscribers=8)
        client = udr.attach("fe-wake", udr.topology.sites[0],
                            qos=QoSProfile(deadline_ticks=50))
        future = client.session().submit(Read(profiles[0].identities.imsi))
        response = run_to_completion(udr, future.wait())
        assert response.result_code is ResultCode.TIME_LIMIT_EXCEEDED
        assert future.completed_at == pytest.approx(future.deadline,
                                                    abs=1e-6)
        assert future.completed_at < self.LINGER_TICKS * BATCH_LINGER_TICK, \
            "answered long before the linger deadline would have fired"

    def test_direct_ticket_expires_at_its_deadline(self):
        udr, profiles = build_udr(self._config(), subscribers=8)
        deadline = udr.sim.now + 0.03
        ticket = udr.dispatcher.submit(
            read_request(profiles[0]), ClientType.APPLICATION_FE,
            udr.topology.sites[0], deadline=deadline)

        def wait():
            yield ticket.event

        run_to_completion(udr, wait())
        assert ticket.response.result_code is ResultCode.TIME_LIMIT_EXCEEDED
        assert ticket.completed_at == pytest.approx(deadline, abs=1e-6)

    def test_each_deadline_gets_its_own_wake(self):
        udr, profiles = build_udr(self._config(), subscribers=8)
        site = udr.topology.sites[0]
        first_deadline = udr.sim.now + 0.03
        second_deadline = udr.sim.now + 0.06
        first = udr.dispatcher.submit(
            read_request(profiles[0]), ClientType.APPLICATION_FE, site,
            deadline=first_deadline)
        second = udr.dispatcher.submit(
            read_request(profiles[0]), ClientType.APPLICATION_FE, site,
            deadline=second_deadline)

        def wait():
            yield first.event
            yield second.event

        run_to_completion(udr, wait())
        assert first.completed_at == pytest.approx(first_deadline, abs=1e-6)
        assert second.completed_at == pytest.approx(second_deadline,
                                                    abs=1e-6), \
            "the loop re-armed its wake for the next deadline"


# ------------------------------------------------------ retry accounting

class TestRetryAccounting:
    """The ``pending_failure`` entry path of the RetryStage: a retryable
    failure handed in by the batch machinery whose backoff no longer fits
    the deadline must still report the attempt that already ran."""

    def _context(self, udr, profiles, policy, deadline):
        return OperationContext(
            read_request(profiles[0]), ClientType.APPLICATION_FE,
            udr.topology.sites[0], udr.sim.now,
            deadline=deadline, retry_policy=policy)

    def test_deadline_refused_retry_still_counts_its_attempt(self):
        udr, profiles = build_udr(subscribers=8)
        policy = RetryPolicy(max_retries=3, backoff_tick=0.05)
        ctx = self._context(udr, profiles, policy,
                            deadline=udr.sim.now + 0.02)
        failure = OperationFailure(ResultCode.UNAVAILABLE, "copy down",
                                   retryable=True)
        stage = udr.pipeline.retry_stage.run(ctx, pending_failure=failure)
        with pytest.raises(OperationFailure) as refused:
            next(stage)
        assert refused.value.code is ResultCode.TIME_LIMIT_EXCEEDED
        assert "before retry" in refused.value.reason
        assert ctx.attempts == 1, \
            "the attempt that produced the pending failure ran and counts"

    def test_non_retryable_pending_failure_keeps_its_code(self):
        udr, profiles = build_udr(subscribers=8)
        policy = RetryPolicy(max_retries=3, backoff_tick=0.05)
        ctx = self._context(udr, profiles, policy,
                            deadline=udr.sim.now + 0.02)
        failure = OperationFailure(ResultCode.NO_SUCH_OBJECT, "not found",
                                   retryable=False)
        stage = udr.pipeline.retry_stage.run(ctx, pending_failure=failure)
        with pytest.raises(OperationFailure) as surfaced:
            next(stage)
        assert surfaced.value.code is ResultCode.NO_SUCH_OBJECT
        assert ctx.attempts == 0, "nothing was retried"


# ------------------------------------------------------- timeout hygiene

class TestTimeoutHeapHygiene:
    def test_filled_waves_cancel_their_linger_timeouts(self):
        """Saturation soak: every wave fills before its (far-future) linger
        deadline, so every armed timeout is abandoned.  Cancellation plus
        heap compaction must keep the event heap bounded instead of letting
        one dead timeout per wave accumulate until its fire time."""
        config = UDRConfig(dispatch_mode=DispatchMode.DISPATCHER,
                           batch_max_size=4, batch_linger_ticks=100_000)
        udr, profiles = build_udr(config, subscribers=8)
        site = udr.topology.sites[0]
        request = read_request(profiles[0])
        waves = 120
        heap_sizes = []

        def soak():
            for _ in range(waves):
                tickets = [udr.dispatcher.submit(
                    request, ClientType.APPLICATION_FE, site)
                    for _ in range(2)]
                # Let the loop wake and arm the linger timeout...
                yield udr.sim.timeout(0.0001)
                # ...then fill the wave, which must cancel it.
                tickets += [udr.dispatcher.submit(
                    request, ClientType.APPLICATION_FE, site)
                    for _ in range(2)]
                yield udr.sim.all_of([t.event for t in tickets])
                heap_sizes.append(len(udr.sim._queue))

        run_to_completion(udr, soak())
        assert udr.metrics.counter("dispatcher.dispatched") == 4 * waves
        assert udr.metrics.counter("dispatcher.waves_full") == waves
        assert max(heap_sizes) < 80, \
            f"event heap grew to {max(heap_sizes)} under saturation"
        stale = sum(1 for entry in udr.sim._queue if entry[-1].cancelled)
        assert stale < 70, f"{stale} dead timeouts left in the heap"


# -------------------------------------------------------------- shed mode

class TestShedMode:
    def test_controller_trip_clear_hysteresis(self):
        udr, _profiles = build_udr(subscribers=8)
        policy = ShedPolicy(alpha=1.0, trip_depth=4.0, clear_depth=1.0)
        controller = ShedController(policy, udr.pipeline, udr.metrics)
        controller.observe(5)
        assert controller.active and udr.pipeline.shed_active
        assert udr.metrics.counter("dispatcher.shed.activations") == 1
        assert udr.metrics.gauge("dispatcher.shed.active") == 1
        controller.observe(3)  # between clear and trip: no chatter
        assert controller.active
        controller.observe(0)
        assert not controller.active and not udr.pipeline.shed_active
        assert udr.metrics.gauge("dispatcher.shed.active") == 0
        controller.observe(2)  # below trip: stays clear
        assert not controller.active
        controller.observe(6)
        assert controller.active
        assert udr.metrics.counter("dispatcher.shed.activations") == 2

    def test_shed_serves_master_only_reads_from_slave(self):
        udr, profiles = build_udr(subscribers=8)
        profile = profiles[0]
        element = udr.deployment.authoritative_lookup(
            "imsi", profile.identities.imsi)
        replica_set = udr.deployment.replica_set_of_element(element)
        master = replica_set.master_element_name
        udr.crash_element(master)
        site = udr.topology.sites[0]
        operation = Read(profile.identities.imsi)
        # PROVISIONING reads are master-only: with the master down and no
        # shed, the read has no copy it may use.
        baseline = run_to_completion(
            udr, udr.attach("ps-a", site,
                            client_type=ClientType.PROVISIONING)
            .session().call(operation))
        assert baseline.result_code is ResultCode.UNAVAILABLE
        udr.pipeline.shed_active = True
        shed = run_to_completion(
            udr, udr.attach("ps-b", site,
                            client_type=ClientType.PROVISIONING)
            .session().call(operation))
        assert shed.ok
        assert shed.served_from != master, "served by a slave copy"
        udr.flush_metrics()
        assert udr.metrics.counter("dispatcher.shed.slave_reads") >= 1

    def test_shed_defers_bulk_but_never_drops_it(self):
        config = UDRConfig(
            dispatch_mode=DispatchMode.DISPATCHER, batch_max_size=4,
            batch_linger_ticks=5,
            shed_policy=ShedPolicy(alpha=1.0, trip_depth=1e9,
                                   clear_depth=0.0))
        udr, profiles = build_udr(config, subscribers=8)
        site = udr.topology.sites[0]
        request = read_request(profiles[0])
        # Force the mode (the huge trip depth keeps observations inert).
        udr.dispatcher.shed.active = True
        udr.dispatcher.shed.ewma = 1e12
        udr.pipeline.shed_active = True
        live = [udr.dispatcher.submit(request, ClientType.APPLICATION_FE,
                                      site) for _ in range(2)]
        bulk = [udr.dispatcher.submit(request, ClientType.APPLICATION_FE,
                                      site, priority=Priority.BULK)
                for _ in range(2)]

        def wait():
            yield udr.sim.all_of([t.event for t in live + bulk])

        run_to_completion(udr, wait())
        assert udr.metrics.counter("dispatcher.shed.bulk_deferred") == 2
        assert all(t.response.ok for t in live + bulk), \
            "deferred bulk work was dispatched later, never dropped"
        assert max(t.completed_at for t in live) < \
            min(t.completed_at for t in bulk), \
            "the live wave went out first; bulk followed in its own wave"

    def test_sustained_queue_trips_and_draining_clears(self):
        config = UDRConfig(
            dispatch_mode=DispatchMode.DISPATCHER, batch_max_size=8,
            batch_linger_ticks=1,
            shed_policy=ShedPolicy(alpha=0.5, trip_depth=8.0,
                                   clear_depth=2.0))
        udr, profiles = build_udr(config, subscribers=8)
        site = udr.topology.sites[0]
        request = read_request(profiles[0])
        flood = [udr.dispatcher.submit(request, ClientType.APPLICATION_FE,
                                       site) for _ in range(40)]
        assert udr.dispatcher.shed.active, \
            "the standing queue tripped the EWMA"
        assert udr.metrics.counter("dispatcher.shed.activations") == 1

        def drain(tickets):
            yield udr.sim.all_of([t.event for t in tickets])

        run_to_completion(udr, drain(flood))
        # Trickle traffic: each lone arrival and each emptied-queue wave
        # observation decays the EWMA below the clear threshold.
        for _ in range(8):
            trickle = udr.dispatcher.submit(
                request, ClientType.APPLICATION_FE, site)
            run_to_completion(udr, drain([trickle]))
        assert not udr.dispatcher.shed.active
        assert not udr.pipeline.shed_active
        assert udr.metrics.gauge("dispatcher.shed.active") == 0
        assert udr.metrics.counter("dispatcher.shed.activations") == 1, \
            "clearing did not re-trip"


# -------------------------------------------------- slack-aware ordering

class TestSlackAwareOrdering:
    def _ticket(self, udr, profiles, priority=None, deadline=None):
        item = BatchItem(read_request(profiles[0]),
                         ClientType.APPLICATION_FE,
                         udr.topology.sites[0], priority=priority,
                         deadline=deadline)
        return DispatchTicket(item, 0.0, None, source="test")

    def test_within_class_earlier_deadline_goes_first(self):
        udr, profiles = build_udr(subscribers=8)
        tickets = [self._ticket(udr, profiles, deadline=None),
                   self._ticket(udr, profiles, deadline=0.5),
                   self._ticket(udr, profiles, deadline=0.1)]
        ordered = udr.pipeline.batch_admission.order(tickets)
        assert [t.item.deadline for t in ordered] == [0.1, 0.5, None], \
            "tightest slack first; deadline-free work at the class's back"

    @settings(max_examples=100, deadline=None)
    @given(specs=st.lists(st.tuples(
               st.sampled_from([None, *Priority]),
               st.one_of(st.none(), st.sampled_from([0.1, 0.2, 0.5]))),
           max_size=40),
           limit=st.integers(min_value=0, max_value=45))
    def test_limited_order_is_the_full_orders_prefix(self, small_udr, specs,
                                                     limit):
        udr, profiles = small_udr
        tickets = [self._ticket(udr, profiles, priority=priority,
                                deadline=deadline)
                   for priority, deadline in specs]
        admission = udr.pipeline.batch_admission
        assert admission.order(tickets, limit) == \
            admission.order(tickets)[:limit]

    def test_without_deadlines_order_is_the_pr6_round_robin(self):
        udr, profiles = build_udr(subscribers=8)
        tickets = [self._ticket(udr, profiles,
                                priority=[None, Priority.BULK,
                                          Priority.PROVISIONING][i % 3])
                   for i in range(9)]
        ordered = udr.pipeline.batch_admission.order(tickets)
        # The sort key ties everywhere and the sort is stable, so each
        # class's subsequence keeps its FIFO arrival order -- bit-identical
        # to the PR 6 weighted round-robin.
        for priority in Priority:
            expected = [t for t in tickets
                        if t.item.priority_class() is priority]
            got = [t for t in ordered
                   if t.item.priority_class() is priority]
            assert got == expected
