"""The arrival-driven batch dispatcher and cross-wave write coalescing.

Linger-edge behaviour (a wave dispatched exactly at the linger deadline, a
single straggler that never fills a wave), wave formation under load,
priority overtaking in the dispatch queue, the dispatcher metrics, and the
coalesced multi-record transaction path: one begin/commit per partition per
wave, savepoint rollback isolating a failing record, and the savepoint
primitive itself.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AdaptiveLingerController,
    AdaptiveLingerPolicy,
    BatchItem,
    ClientType,
    DispatchMode,
    Priority,
    ShedPolicy,
    UDRConfig,
)
from repro.api import QoSProfile, Read, ResponseFuture
from repro.core.dispatcher import BatchDispatcher, DispatchTicket
from repro.core.pipeline import (
    BATCH_LINGER_TICK,
    PRIORITY_ORDER,
    AdmissionQueue,
)
from repro.ldap import (
    AddRequest,
    LdapResponse,
    ModifyRequest,
    ResultCode,
    SearchRequest,
    SubscriberSchema,
)
from repro.metrics import MetricsRegistry
from repro.sim import Interrupt, Process, Simulation
from repro.subscriber import SubscriberGenerator

from tests.conftest import build_udr, fe_site_for, run_to_completion

LINGER_TICKS = 5
LINGER_BUDGET = LINGER_TICKS * BATCH_LINGER_TICK


def dispatcher_udr(subscribers=48, seed=7, **config_kwargs):
    kwargs = dict(dispatch_mode=DispatchMode.DISPATCHER,
                  batch_linger_ticks=LINGER_TICKS)
    kwargs.update(config_kwargs)
    return build_udr(config=UDRConfig(seed=seed, **kwargs),
                     subscribers=subscribers, seed=seed)


def read_for(udr, profile):
    return SearchRequest(dn=SubscriberSchema.subscriber_dn(
        profile.identities.imsi))


def wait_all(udr, tickets):
    def waiter():
        yield udr.sim.all_of([ticket.event for ticket in tickets])
    run_to_completion(udr, waiter())


class TestWaveFormation:
    def test_straggler_dispatched_exactly_at_linger_deadline(self):
        """A single request that never fills a wave is still dispatched --
        exactly when the oldest (here: only) request's linger budget runs
        out, not a tick earlier or later."""
        udr, profiles = dispatcher_udr()
        site = fe_site_for(udr, profiles[0])
        ticket = udr.dispatcher.submit(read_for(udr, profiles[0]),
                                       ClientType.APPLICATION_FE, site)
        wait_all(udr, [ticket])
        assert ticket.event.value.result_code.name == "SUCCESS"
        # The wave left the queue exactly at the deadline: the recorded
        # linger equals the full budget.
        linger = udr.metrics.latency("dispatcher.linger")
        assert linger.count == 1
        assert linger.summary()["max_ms"] == pytest.approx(
            LINGER_BUDGET * 1000.0)
        assert udr.metrics.counter("dispatcher.waves") == 1
        assert udr.metrics.counter("dispatcher.waves_lingered") == 1
        assert udr.metrics.counter("dispatcher.waves_full") == 0
        # The client-perceived latency includes the real wait.
        assert ticket.latency >= LINGER_BUDGET

    def test_full_wave_dispatches_without_lingering(self):
        """Filling a wave dispatches immediately: no request waits the
        budget out."""
        udr, profiles = dispatcher_udr(batch_max_size=4)
        site = udr.topology.sites[0]
        tickets = [udr.dispatcher.submit(read_for(udr, profile),
                                         ClientType.APPLICATION_FE, site)
                   for profile in profiles[:4]]
        wait_all(udr, tickets)
        assert udr.metrics.counter("dispatcher.waves_full") == 1
        assert udr.metrics.counter("dispatcher.waves_lingered") == 0
        linger = udr.metrics.latency("dispatcher.linger")
        assert linger.summary()["max_ms"] == pytest.approx(0.0)

    def test_late_arrival_joins_lingering_wave(self):
        """A request arriving inside another's linger window rides the same
        wave: one wave, and the late joiner lingers less than the budget."""
        udr, profiles = dispatcher_udr()
        site = udr.topology.sites[0]
        tickets = []

        def arrivals():
            tickets.append(udr.dispatcher.submit(
                read_for(udr, profiles[0]), ClientType.APPLICATION_FE, site))
            yield udr.sim.timeout(LINGER_BUDGET / 2)
            tickets.append(udr.dispatcher.submit(
                read_for(udr, profiles[1]), ClientType.APPLICATION_FE, site))

        run_to_completion(udr, arrivals())
        wait_all(udr, tickets)
        assert udr.metrics.counter("dispatcher.waves") == 1
        assert udr.metrics.counter("dispatcher.dispatched") == 2
        # Oldest request lingered the full budget, the joiner only half.
        lingered = [tickets[0].enqueued_at + LINGER_BUDGET,
                    tickets[1].enqueued_at + LINGER_BUDGET / 2]
        assert tickets[0].completed_at >= lingered[0]
        assert udr.metrics.latency("dispatcher.linger").summary()[
            "max_ms"] == pytest.approx(LINGER_BUDGET * 1000.0)

    def test_arrival_after_dispatch_starts_a_new_wave(self):
        """A request arriving after the previous wave left the queue forms
        its own wave with its own linger deadline."""
        udr, profiles = dispatcher_udr()
        site = udr.topology.sites[0]
        tickets = []

        def arrivals():
            tickets.append(udr.dispatcher.submit(
                read_for(udr, profiles[0]), ClientType.APPLICATION_FE, site))
            yield udr.sim.timeout(LINGER_BUDGET * 3)
            tickets.append(udr.dispatcher.submit(
                read_for(udr, profiles[1]), ClientType.APPLICATION_FE, site))

        run_to_completion(udr, arrivals())
        wait_all(udr, tickets)
        assert udr.metrics.counter("dispatcher.waves") == 2
        assert udr.metrics.counter("dispatcher.waves_lingered") == 2

    def test_zero_linger_budget_dispatches_each_arrival(self):
        """``batch_linger_ticks=0`` never waits: each arrival that finds an
        idle dispatcher is a wave of one."""
        udr, profiles = dispatcher_udr(batch_linger_ticks=0)
        site = udr.topology.sites[0]
        tickets = []

        def arrivals():
            for profile in profiles[:3]:
                tickets.append(udr.dispatcher.submit(
                    read_for(udr, profile), ClientType.APPLICATION_FE, site))
                done = udr.sim.event("spacer")
                tickets[-1].event.add_callback(lambda _e: done.succeed())
                yield done

        run_to_completion(udr, arrivals())
        wait_all(udr, tickets)
        assert udr.metrics.counter("dispatcher.waves") == 3

    def test_priority_overtakes_in_dispatch_queue(self):
        """When more is queued than one wave holds, signalling arrivals
        overtake earlier bulk ones -- the weighted dequeue applies to the
        live queue, not just inside a pre-built batch."""
        udr, profiles = dispatcher_udr(batch_max_size=2,
                                       batch_linger_ticks=1000)
        site = udr.topology.sites[0]
        bulk = [udr.dispatcher.submit(read_for(udr, profile),
                                      ClientType.PROVISIONING, site,
                                      priority=Priority.BULK)
                for profile in profiles[:3]]
        signalling = udr.dispatcher.submit(read_for(udr, profiles[3]),
                                           ClientType.APPLICATION_FE, site)
        wait_all(udr, bulk + [signalling])
        # Wave 1 (cut when the queue held 3 bulk + 1 signalling after the
        # max-size trigger) carries the signalling request plus the oldest
        # bulk one; the other two bulk requests ride later waves.
        assert signalling.completed_at <= min(t.completed_at
                                              for t in bulk[1:])
        assert udr.metrics.counter("dispatcher.waves") >= 2

    def test_queue_depth_gauges_recorded(self):
        udr, profiles = dispatcher_udr(batch_max_size=2,
                                       batch_linger_ticks=1000)
        site = udr.topology.sites[0]
        tickets = [udr.dispatcher.submit(read_for(udr, profile),
                                         ClientType.APPLICATION_FE, site)
                   for profile in profiles[:3]]
        assert udr.metrics.gauge("dispatcher.queue_depth_max") == 3
        wait_all(udr, tickets)
        assert udr.metrics.counter("dispatcher.enqueued") == 3
        assert udr.metrics.counter("dispatcher.dispatched") == 3
        assert udr.metrics.gauge("dispatcher.queue_depth") == 0

    def test_stop_leaves_unfinished_tickets_pending(self):
        udr, profiles = dispatcher_udr()
        site = udr.topology.sites[0]
        ticket = udr.dispatcher.submit(read_for(udr, profiles[0]),
                                       ClientType.APPLICATION_FE, site)
        udr.stop()
        udr.sim.run_for(1.0)
        assert not ticket.done
        assert not udr.dispatcher.started


class TestDispatchModeRouting:
    def test_call_routes_direct_by_default(self):
        udr, profiles = build_udr()
        session = udr.attach("fe", fe_site_for(udr, profiles[0])).session()
        response = run_to_completion(
            udr, session.call(read_for(udr, profiles[0])))
        assert response.result_code.name == "SUCCESS"
        assert udr.metrics.counter("dispatcher.enqueued") == 0

    def test_call_routes_through_dispatcher_when_configured(self):
        udr, profiles = dispatcher_udr()
        session = udr.attach("fe", fe_site_for(udr, profiles[0])).session()
        response = run_to_completion(
            udr, session.call(read_for(udr, profiles[0])))
        assert response.result_code.name == "SUCCESS"
        assert udr.metrics.counter("dispatcher.enqueued") == 1
        assert response.latency >= 0.0

    def test_front_end_traffic_forms_waves(self):
        """Concurrent front-end procedures enqueue individual requests and
        the dispatcher batches across them -- the continuous-load regime."""
        from repro.frontends.hlr_fe import HlrFrontEnd
        udr, profiles = dispatcher_udr()
        by_region = {}
        for profile in profiles:
            by_region.setdefault(profile.current_region
                                 or profile.home_region, []).append(profile)
        for region, group in by_region.items():
            site = next(site for site in udr.topology.sites
                        if site.region.name == region)
            front_end = HlrFrontEnd(f"fe-{region}", udr, site)
            udr.sim.process(front_end.traffic_driver(
                group, rate_per_second=40.0, duration=2.0))
        udr.sim.run(until=udr.sim.now + 30.0)
        waves = udr.metrics.counter("dispatcher.waves")
        dispatched = udr.metrics.counter("dispatcher.dispatched")
        assert dispatched > 0
        assert waves < dispatched, \
            "lingering must have merged concurrent FE requests into waves"


class TestAdaptiveLinger:
    def controller(self, **policy_kwargs):
        policy = AdaptiveLingerPolicy(**policy_kwargs)
        return AdaptiveLingerController(policy, batch_max_size=32)

    def test_cold_start_and_standing_queue_dispatch_fast(self):
        controller = self.controller(min_ticks=0, max_ticks=50)
        assert controller.budget(0) == 0.0, "no estimate yet: don't guess"
        for _ in range(5):
            controller.observe_arrival(1.0)  # simultaneous arrivals
        assert controller.ewma == 0.0
        assert controller.budget(4) == 0.0, \
            "a standing queue fills waves on its own"

    def test_trickle_traffic_skips_the_latency_tax(self):
        controller = self.controller(min_ticks=0, max_ticks=50)
        now = 0.0
        for _ in range(10):
            now += 0.1  # 10/s: max budget gathers 0.5 requests
            controller.observe_arrival(now)
        assert controller.budget(0) == 0.0

    def test_mid_load_lingers_the_expected_fill_time(self):
        controller = self.controller(min_ticks=0, max_ticks=50)
        now = 0.0
        for _ in range(50):
            now += 0.002  # 500/s: a wave fills within the budget
            controller.observe_arrival(now)
        assert abs(controller.ewma - 0.002) < 1e-4
        # 10 queued, 21 missing: linger the expected fill time.
        budget = controller.budget(10)
        assert abs(budget - 21 * controller.ewma) < 1e-6
        # An empty queue would need 62 ms: clamped to the 50-tick maximum.
        assert controller.budget(0) == 50 * BATCH_LINGER_TICK
        # A full queue needs no waiting at all.
        assert controller.budget(31) == 0.0

    def test_budget_clamped_to_policy_window(self):
        controller = self.controller(min_ticks=2, max_ticks=10)
        now = 0.0
        for _ in range(50):
            now += 0.0005  # 2000/s: expected fill 15.5 ms > max 10 ms
            controller.observe_arrival(now)
        assert controller.budget(0) == 10 * BATCH_LINGER_TICK
        assert controller.budget(31) == 2 * BATCH_LINGER_TICK

    def test_small_budget_window_on_fast_traffic_still_cuts_off(self):
        """fill_threshold is relative to the wave: when even the maximum
        window can only gather a third of a wave, the controller refuses
        to linger regardless of how fast arrivals are."""
        controller = self.controller(min_ticks=0, max_ticks=10)
        now = 0.0
        for _ in range(50):
            now += 0.001  # 1000/s, but 10 ms gathers only 10 of 32
            controller.observe_arrival(now)
        assert controller.budget(0) == 0.0

    def test_dispatcher_uses_adaptive_budget(self):
        """Integration: a burst of simultaneous submissions collapses the
        adaptive budget to zero, so the under-filled wave dispatches
        immediately instead of waiting out a static linger."""
        udr, profiles = dispatcher_udr(
            adaptive_linger=AdaptiveLingerPolicy(min_ticks=0, max_ticks=50),
            batch_linger_ticks=50)  # the static budget that would apply
        site = fe_site_for(udr, profiles[0])
        start = udr.sim.now
        tickets = [udr.dispatcher.submit(read_for(udr, profile),
                                         ClientType.APPLICATION_FE, site)
                   for profile in profiles[:8]]
        wait_all(udr, tickets)
        assert udr.metrics.counter("dispatcher.waves") == 1
        linger = udr.metrics.latency("dispatcher.linger")
        assert linger.maximum() < BATCH_LINGER_TICK, \
            "no ticket waited a static linger budget out"
        assert all(ticket.response.ok for ticket in tickets)
        recorder = udr.metrics.histogram("dispatcher.adaptive_budget")
        assert recorder.count >= 1


class TestSharedWaveRespond:
    def test_source_tickets_share_one_response_event(self):
        """N concurrent callers of one front-end process resume from a
        single grouped event per wave instead of N ticket events."""
        udr, profiles = dispatcher_udr()
        session = udr.attach("fe-shared",
                             fe_site_for(udr, profiles[0])).session()
        responses = []

        def caller(profile):
            response = yield from session.call(read_for(udr, profile))
            responses.append(response)

        processes = [udr.sim.process(caller(profile))
                     for profile in profiles[:6]]

        def waiter():
            yield udr.sim.all_of(processes)

        run_to_completion(udr, waiter())
        assert len(responses) == 6
        assert all(response.ok for response in responses)
        assert udr.metrics.counter("dispatcher.grouped_responses") == 1
        assert udr.metrics.counter("dispatcher.grouped_tickets") == 6

    def test_sources_resume_independently_across_waves(self):
        """A wave completing one source's tickets wakes that source's
        waiters only once; callers whose tickets ride a later wave re-wait
        on the fresh event and still get their own responses."""
        udr, profiles = dispatcher_udr(batch_max_size=2,
                                       batch_linger_ticks=1)
        session = udr.attach("fe-one",
                             fe_site_for(udr, profiles[0])).session()
        responses = {}

        def caller(name, profile):
            response = yield from session.call(read_for(udr, profile))
            responses[name] = response

        def spaced_callers():
            for index, profile in enumerate(profiles[:5]):
                udr.sim.process(caller(f"c{index}", profile))
                yield udr.sim.timeout(0.0005)

        run_to_completion(udr, spaced_callers())
        udr.sim.run_for(2.0)
        assert len(responses) == 5
        assert all(response.ok for response in responses.values())
        waves = udr.metrics.counter("dispatcher.waves")
        assert waves >= 2, "the five tickets spanned several waves"
        assert udr.metrics.counter("dispatcher.grouped_tickets") == 5
        assert udr.metrics.counter("dispatcher.grouped_responses") == waves

    def test_response_event_is_shared_until_it_fires(self):
        udr, profiles = dispatcher_udr(subscribers=4)
        site = fe_site_for(udr, profiles[0])
        tickets = [udr.dispatcher.submit(read_for(udr, profile),
                                         ClientType.APPLICATION_FE, site,
                                         source="fe-label")
                   for profile in profiles[:2]]
        event = udr.dispatcher.response_event("fe-label")
        waiters = [udr.dispatcher.wait_event(ticket) for ticket in tickets]
        assert udr.dispatcher.response_event("fe-label") is event
        assert event.callbacks == waiters, \
            "both callers wait on the one shared event, in order"
        assert repr(event) == "<wave-response:fe-label status=pending>"
        assert repr(waiters[0]) == "<waiter:fe-label status=pending>"
        event.succeed()
        assert udr.dispatcher.response_event("fe-label") is not event

    def test_mixed_wave_keeps_per_ticket_events_for_untagged(self):
        udr, profiles = dispatcher_udr()
        site = fe_site_for(udr, profiles[0])
        plain = udr.dispatcher.submit(read_for(udr, profiles[0]),
                                      ClientType.APPLICATION_FE, site)
        tagged = udr.dispatcher.submit(read_for(udr, profiles[1]),
                                       ClientType.APPLICATION_FE, site,
                                       source="fe-mixed")
        assert tagged.event is None
        wait_all(udr, [plain])
        udr.sim.run_for(1.0)
        assert plain.event.value.result_code.name == "SUCCESS"
        assert tagged.done and tagged.response.ok
        assert udr.metrics.counter("dispatcher.grouped_responses") == 1
        assert udr.metrics.counter("dispatcher.grouped_tickets") == 1

    def test_front_end_procedures_ride_the_grouped_path(self):
        from repro.frontends.hlr_fe import HlrFrontEnd
        udr, profiles = dispatcher_udr()
        site = fe_site_for(udr, profiles[0])
        front_end = HlrFrontEnd("fe-grouped", udr, site)
        udr.sim.process(front_end.traffic_driver(
            profiles[:12], rate_per_second=200.0, duration=0.5))
        udr.sim.run(until=udr.sim.now + 20.0)
        assert front_end.procedures_attempted > 0
        assert udr.metrics.counter("dispatcher.grouped_tickets") > 0
        assert udr.metrics.counter("dispatcher.grouped_responses") <= \
            udr.metrics.counter("dispatcher.grouped_tickets")


def parent_wait(self):
    """``ResponseFuture.wait`` as it was before the keyed wake: every waiter
    of a source resumes on each of its source's wave responses and waits
    again on the fresh one -- the reference semantics."""
    if self.done:
        return self._response
    if self._ticket is not None:
        dispatcher = self.session.client.udr.dispatcher
        while self._ticket.response is None:
            yield dispatcher.response_event(self.session.client.name)
        self._settle(self._ticket.response)
        return self._response
    yield self._process
    return self._response


DEEP_CALLERS = 1200


def count_kernel_calls(monkeypatch):
    """Count ``Process._resume`` and ``Simulation.step`` calls from now on."""
    counts = {"resumes": 0, "steps": 0}
    resume, step = Process._resume, Simulation.step

    def counted_resume(process, event):
        counts["resumes"] += 1
        return resume(process, event)

    def counted_step(sim):
        counts["steps"] += 1
        return step(sim)

    monkeypatch.setattr(Process, "_resume", counted_resume)
    monkeypatch.setattr(Simulation, "step", counted_step)
    return counts


def deep_queue_run(monkeypatch, reference=False, interrupt_every=0):
    """Queue ``DEEP_CALLERS`` source-tagged session calls at once.

    Three clients (two front-ends at different sites, one provisioning
    system) share the queue; every seventh caller is bulk class, so waves
    take members out of arrival order, and every fifth caller calls again
    the moment its first response arrives.  With ``interrupt_every`` one
    in that many callers is interrupted while it waits.  Returns the
    completion log, the kernel call counts over the drain and the
    interrupted callers.
    """
    if reference:
        monkeypatch.setattr(ResponseFuture, "wait", parent_wait)
    udr, profiles = dispatcher_udr(subscribers=60, batch_max_size=8,
                                   batch_linger_ticks=1)
    sites = udr.topology.sites
    sessions = [udr.attach("fe-a", sites[0]).session(),
                udr.attach("fe-b", sites[-1]).session(),
                udr.attach("ps", sites[0], ClientType.PROVISIONING).session()]
    bulk = QoSProfile(priority=Priority.BULK)
    completions = []
    interrupted = []

    def caller(index):
        session = sessions[index % len(sessions)]
        calls = 2 if index % 5 == 0 else 1
        try:
            for call in range(calls):
                imsi = profiles[(index + call) % len(profiles)] \
                    .identities.imsi
                response = yield from session.call(
                    Read(imsi), bulk if index % 7 == 0 else None)
                assert imsi in str(response.request.dn), \
                    "each caller reads its own response"
                completions.append((index, call, udr.sim.now,
                                    response.result_code.name))
        except Interrupt:
            interrupted.append(index)

    counts = count_kernel_calls(monkeypatch)
    callers = [udr.sim.process(caller(index))
               for index in range(DEEP_CALLERS)]
    if interrupt_every:
        udr.sim.run(until=udr.sim.now + 0.05)
        for index in range(0, DEEP_CALLERS, interrupt_every):
            callers[index].interrupt("caller gave up")
    udr.sim.run_until_triggered(udr.sim.all_of(callers),
                                limit=udr.sim.now + 600.0)
    assert all(process.triggered for process in callers)
    return completions, dict(counts), interrupted


class TestKeyedWake:
    """A deep queue of source-tagged callers: the shared wave response
    resumes only the callers whose ticket it answered, in the order the
    wake of every waiter used to."""

    def test_deep_queue_resumes_no_more_than_it_steps(self, monkeypatch):
        completions, counts, _ = deep_queue_run(monkeypatch)
        assert len(completions) == DEEP_CALLERS + DEEP_CALLERS // 5
        codes = [code for *_, code in completions]
        assert codes.count("SUCCESS") >= len(codes) - 5, \
            "only a lost link message may fail a call"
        assert counts["resumes"] <= counts["steps"], counts

    def test_completion_order_matches_the_wake_of_every_waiter(
            self, monkeypatch):
        keyed, counts, _ = deep_queue_run(monkeypatch)
        with monkeypatch.context() as patch:
            reference, herd, _ = deep_queue_run(patch, reference=True)
        assert keyed == reference
        assert herd["steps"] == counts["steps"]
        assert herd["resumes"] > 10 * herd["steps"], \
            "the reference wakes every waiter on every wave"
        order = [index for index, call, *_ in keyed if call == 0]
        assert order != sorted(order), "waves took callers out of order"

    def test_interrupted_waiter_is_detached_and_the_rest_resume(
            self, monkeypatch):
        keyed, counts, interrupted = deep_queue_run(
            monkeypatch, interrupt_every=50)
        assert interrupted == list(range(0, DEEP_CALLERS, 50))
        finished = {index for index, call, *_ in keyed if call == 0}
        assert finished.isdisjoint(interrupted)
        assert len(finished) == DEEP_CALLERS - len(interrupted)
        assert counts["resumes"] <= counts["steps"], counts
        with monkeypatch.context() as patch:
            reference, _, _ = deep_queue_run(patch, reference=True,
                                             interrupt_every=50)
        assert keyed == reference

    def test_late_waiters_keep_the_order_of_the_wake_of_every_waiter(self):
        """Waiters that arrive while a wave response is already due, a
        second response triggered before the first runs, and a caller
        waiting again mid-resume all land where a wake of every waiter
        would have put them."""
        reference = late_waiter_script(keyed=False)
        assert reference[0] == ["p2", "p5", "p1", "p2b", "p3", "p6", "r",
                                "g", "p4", "q interrupted", "s1 interrupted",
                                "s2"]
        assert late_waiter_script(keyed=True) == reference


def late_waiter_script(keyed):
    """Drive one source's waiters by hand; returns the resume log."""
    udr, profiles = dispatcher_udr(subscribers=4)
    dispatcher, sim = udr.dispatcher, udr.sim
    site = fe_site_for(udr, profiles[0])
    item = BatchItem(read_for(udr, profiles[0]), ClientType.APPLICATION_FE,
                     site)
    names = ("p1", "p2", "p3", "p4", "p5", "p6", "r", "p2b", "g", "q", "s1",
             "s2")
    tickets = {name: DispatchTicket(item, sim.now, None, source="fe")
               for name in names}
    log = []

    def wait(name):
        ticket = tickets[name]
        while ticket.response is None:
            yield (dispatcher.wait_event(ticket) if keyed
                   else dispatcher.response_event("fe"))
        log.append(name)

    def caller(name, then=None):
        try:
            yield from wait(name)
            if then is not None:
                yield from wait(then)  # waits again while being resumed
        except Interrupt:
            log.append(f"{name} interrupted")

    def answer(*names):
        for name in names:
            dispatcher._answer(tickets[name], LdapResponse(ResultCode.SUCCESS))

    def trigger():
        event = dispatcher._source_events.pop("fe", None)
        if event is not None:
            event.succeed(0)

    def run_instant():
        sim.run(until=sim.now)

    def second_trigger():
        # Runs after p5 joined the fresh event, before the first response:
        # the fresh event is triggered too, and r joins between the two.
        answer("p5")
        sim.process(caller("r"))
        trigger()
        yield from ()

    for name in ("p1", "p2", "p3", "p4"):
        sim.process(caller(name, then="p2b" if name == "p2" else None))
    run_instant()
    sim.process(caller("p5"))  # bootstraps after the trigger below
    sim.process(second_trigger())
    answer("p2")
    trigger()
    sim.process(caller("p6"))
    run_instant()
    answer("p1", "p3", "p6", "r", "p2b")
    trigger()
    run_instant()
    sim.process(caller("g"))  # joins while a response with p4 is due
    trigger()
    run_instant()
    answer("p4", "g")
    trigger()
    run_instant()
    quitter = sim.process(caller("q"))
    run_instant()
    quitter.interrupt()
    run_instant()
    # q left: the wave response finds no live waiter and hands nothing
    # on, so the next trigger finds no fresh event to schedule.
    trigger()
    run_instant()
    trigger()
    run_instant()
    # s1 is answered, then interrupted before its wave response runs.
    answered_quitter = sim.process(caller("s1"))
    sim.process(caller("s2"))
    run_instant()
    answer("s1")
    answered_quitter.interrupt()
    run_instant()
    trigger()
    run_instant()
    answer("s2")
    trigger()
    run_instant()
    return log, sim._sequence


def reference_order(weights, slots, limit=None):
    """The stateless weighted-priority admission order (slack-sorted within
    a class), kept verbatim as the oracle of the persistent queue;
    ``weights`` holds one quantum per class of ``PRIORITY_ORDER``."""
    queues = {p: [] for p in Priority}
    for slot in slots:
        queues[slot.item.priority_class()].append(slot)
    infinity = float("inf")
    for queue in queues.values():
        if any(slot.item.deadline is not None for slot in queue):
            queue.sort(key=lambda slot: slot.item.deadline
                       if slot.item.deadline is not None else infinity)
    ordered = []
    cursors = {priority: 0 for priority in Priority}
    remaining = len(slots) if limit is None else min(limit, len(slots))
    while remaining > 0:
        for weight, priority in zip(weights, PRIORITY_ORDER):
            queue, cursor = queues[priority], cursors[priority]
            take = min(weight, len(queue) - cursor, remaining)
            if take <= 0:
                continue
            ordered.extend(queue[cursor:cursor + take])
            cursors[priority] = cursor + take
            remaining -= take
    return ordered


#: A submit: (client type, priority override, deadline ticks or None).
submits = st.tuples(st.just("submit"),
                    st.sampled_from([ClientType.APPLICATION_FE,
                                     ClientType.PROVISIONING]),
                    st.sampled_from([None, *Priority]),
                    st.sampled_from([None, None, *range(1, 13)]))
queue_actions = st.lists(st.one_of(
    submits, submits, submits,
    st.tuples(st.just("advance"), st.sampled_from([1, 2, 3])),
    st.tuples(st.just("shed"), st.booleans()),
    st.tuples(st.just("wave"))), min_size=8, max_size=80)


class TestAdmissionQueueProperty:
    def test_expired_tickets_come_back_in_arrival_order(self):
        queue = AdmissionQueue()
        site = None
        late, early, open_ended = (
            DispatchTicket(BatchItem(None, ClientType.APPLICATION_FE, site,
                                     deadline=deadline), 0.0, None)
            for deadline in (0.5, 0.2, None))
        for ticket in (late, early, open_ended):
            queue.push(ticket)
        assert queue.earliest_deadline() == 0.2
        assert queue.expire(0.6) == [late, early]
        assert queue.earliest_deadline() is None
        assert list(queue) == [open_ended] and queue.oldest() is open_ended

    def test_deferred_class_stays_queued_across_rounds(self):
        """Six signalling tickets outlast the signalling quantum (4), so
        the round robin reaches the bulk class -- which is deferred."""
        queue = AdmissionQueue()
        tickets = [DispatchTicket(BatchItem(None, ClientType.APPLICATION_FE,
                                            None, priority=priority),
                                  0.0, None)
                   for priority in [Priority.BULK] * 2 +
                   [Priority.SIGNALLING] * 6]
        for ticket in tickets:
            queue.push(ticket)
        assert queue.pop_wave(8, defer=Priority.BULK) == tickets[2:]
        assert list(queue) == tickets[:2]
        assert queue.count(Priority.BULK) == 2

    def test_dispatched_deadlines_do_not_pile_up(self):
        queue = AdmissionQueue()
        for index in range(500):
            queue.push(DispatchTicket(
                BatchItem(None, ClientType.APPLICATION_FE, None,
                          deadline=1000.0 + index), 0.0, None))
            queue.pop_wave(1)
        assert len(queue) == 0
        assert len(queue._deadlines) <= 2 * 64

    def test_deferred_expiry_does_not_pile_up_in_the_class_heap(self):
        """Shed mode defers bulk for as long as higher-class work queues, so
        pop_wave never reaches the bulk heap; expiry must still clear it."""
        queue = AdmissionQueue()
        bulk_heap = queue._heaps[PRIORITY_ORDER.index(Priority.BULK)]
        now = 0.0
        for _ in range(2000):
            for priority, deadline in ((Priority.BULK, now + 0.002),
                                       (Priority.SIGNALLING, None)):
                queue.push(DispatchTicket(
                    BatchItem(None, ClientType.APPLICATION_FE, None,
                              priority=priority, deadline=deadline),
                    now, None))
            now += 0.001
            queue.expire(now)
            assert queue.pop_wave(1, defer=Priority.BULK)
        live = queue.count(Priority.BULK)
        assert live <= 3, "bulk tickets expire two ticks after arrival"
        assert len(bulk_heap) <= 2 * live + 64 + 1

    @settings(max_examples=200, deadline=None)
    @given(specs=st.lists(st.tuples(
               st.sampled_from([ClientType.APPLICATION_FE,
                                ClientType.PROVISIONING]),
               st.sampled_from([None, *Priority]),
               st.sampled_from([None, 0.1, 0.2, 0.5, 0.9])), max_size=40),
           weights=st.tuples(*(st.integers(1, 4) for _ in PRIORITY_ORDER)),
           defer=st.sampled_from([None, *Priority]),
           limit=st.integers(0, 45))
    def test_reordering_a_popped_wave_changes_nothing(
            self, small_udr, specs, weights, defer, limit):
        """``pop_wave`` already returns a wave in admission order, so the
        dispatcher drives it as popped: ordering it again is the identity,
        for any weights, classes, deadlines, deferred class and size."""
        udr, profiles = small_udr
        request = read_for(udr, profiles[0])
        site = udr.topology.sites[0]
        queue = AdmissionQueue(weights)
        for client_type, priority, deadline in specs:
            queue.push(DispatchTicket(
                BatchItem(request, client_type, site, priority=priority,
                          deadline=deadline), 0.0, None))
        wave = queue.pop_wave(limit, defer)
        assert reference_order(weights, wave) == wave
        again = AdmissionQueue(weights)
        for ticket in wave:
            again.push(ticket)
        assert again.pop_wave(len(wave)) == wave

    @settings(max_examples=150, deadline=None)
    @given(actions=queue_actions, wave_size=st.integers(1, 6),
           weights=st.tuples(*(st.integers(1, 4) for _ in PRIORITY_ORDER)))
    def test_queue_matches_the_stateless_order(self, small_udr, actions,
                                               wave_size, weights):
        """Random interleavings of submit, deadline expiry, shed on/off and
        wave formation: the persistent queue forms every wave with the
        members and order of the stateless ``order(queue, k)`` over the
        queue as it stands, expires the same tickets, and defers as many
        bulk tickets."""
        udr, profiles = small_udr
        config = udr.config.replace(
            batch_max_size=wave_size,
            dispatch_mode=DispatchMode.DISPATCHER, shed_policy=ShedPolicy())
        metrics = MetricsRegistry()
        dispatcher = BatchDispatcher(udr.sim, config, udr.pipeline, metrics)
        dispatcher.queue = AdmissionQueue(weights)
        request = read_for(udr, profiles[0])
        site = udr.topology.sites[0]
        tick = 0.001
        now = 0.0
        oracle = []
        deferred = 0
        for action in actions:
            if action[0] == "submit":
                _, client_type, priority, ticks = action
                deadline = None if ticks is None else now + ticks * tick
                ticket = DispatchTicket(
                    BatchItem(request, client_type, site, priority=priority,
                              deadline=deadline), now, None, source="p")
                dispatcher.queue.push(ticket)
                oracle.append(ticket)
            elif action[0] == "advance":
                now += action[1] * tick
                expired = [ticket for ticket in oracle
                           if ticket.item.deadline is not None
                           and now >= ticket.item.deadline]
                oracle = [ticket for ticket in oracle
                          if ticket not in expired]
                assert dispatcher.queue.expire(now) == expired
                earliest = min((ticket.item.deadline for ticket in oracle
                                if ticket.item.deadline is not None),
                               default=None)
                assert dispatcher.queue.earliest_deadline() == earliest
            elif action[0] == "shed":
                dispatcher.shed.active = action[1]
            else:
                candidates = oracle
                if dispatcher.shed.active:
                    live = [ticket for ticket in oracle
                            if ticket.item.priority_class()
                            is not Priority.BULK]
                    if live and len(live) < len(oracle):
                        deferred += len(oracle) - len(live)
                        candidates = live
                expected = reference_order(weights, candidates, wave_size)
                assert dispatcher._form_wave() == expected
                oracle = [ticket for ticket in oracle
                          if ticket not in expected]
            assert list(dispatcher.queue) == oracle
            if oracle:
                assert dispatcher.queue.oldest() is oracle[0]
        assert metrics.counter("dispatcher.shed.bulk_deferred") == deferred


class TestCoalescedWrites:
    def coalescing_udr(self, **kwargs):
        return build_udr(config=UDRConfig(seed=7, coalesce_writes=True,
                                          **kwargs), subscribers=48)

    @staticmethod
    def partition_mates(udr, profiles, count):
        """Profiles whose records live on the same storage element."""
        by_element = {}
        for profile in profiles:
            element = udr.deployment.authoritative_lookup(
                "imsi", profile.identities.imsi)
            by_element.setdefault(element, []).append(profile)
        group = max(by_element.values(), key=len)
        assert len(group) >= count
        return group[:count]

    def test_same_partition_writes_commit_as_one_transaction(self):
        udr, profiles = self.coalescing_udr()
        mates = self.partition_mates(udr, profiles, 3)
        element = udr.deployment.authoritative_lookup(
            "imsi", mates[0].identities.imsi)
        copy = udr.deployment.replica_set_of_element(element).master_copy
        commits_before = copy.transactions.commits
        site = udr.topology.sites[0]
        items = [BatchItem(ModifyRequest(
            dn=SubscriberSchema.subscriber_dn(mate.identities.imsi),
            changes={"servingMsc": f"msc-{index}"}),
            ClientType.PROVISIONING, site)
            for index, mate in enumerate(mates)]
        responses = run_to_completion(udr, udr.pipeline.execute_batch(items))
        assert all(r.result_code.name == "SUCCESS" for r in responses)
        assert copy.transactions.commits == commits_before + 1, \
            "three writes against one partition must be one transaction"
        assert udr.metrics.counter("batch.coalesced.groups") == 1
        assert udr.metrics.counter("batch.coalesced.records") == 3
        for index, mate in enumerate(mates):
            record = copy.store.get(f"sub:{mate.identities.imsi}")
            assert record["servingMsc"] == f"msc-{index}"

    def test_rollback_isolates_failing_record(self):
        """A record failing its business check rolls back to its savepoint;
        the group-mates before and after it still commit."""
        udr, profiles = self.coalescing_udr()
        mates = self.partition_mates(udr, profiles, 2)
        existing = mates[0]
        site = udr.topology.sites[0]
        items = [
            BatchItem(ModifyRequest(
                dn=SubscriberSchema.subscriber_dn(mates[0].identities.imsi),
                changes={"servingMsc": "before"}),
                ClientType.PROVISIONING, site),
            # Duplicate create: fails ENTRY_ALREADY_EXISTS inside the shared
            # transaction.
            BatchItem(AddRequest(
                dn=SubscriberSchema.subscriber_dn(existing.identities.imsi),
                attributes=existing.to_record()),
                ClientType.PROVISIONING, site),
            BatchItem(ModifyRequest(
                dn=SubscriberSchema.subscriber_dn(mates[1].identities.imsi),
                changes={"servingMsc": "after"}),
                ClientType.PROVISIONING, site),
        ]
        responses = run_to_completion(udr, udr.pipeline.execute_batch(items))
        assert [r.result_code.name for r in responses] == \
            ["SUCCESS", "ENTRY_ALREADY_EXISTS", "SUCCESS"]
        assert udr.metrics.counter("batch.coalesced.rollbacks") == 1
        element = udr.deployment.authoritative_lookup(
            "imsi", mates[0].identities.imsi)
        copy = udr.deployment.replica_set_of_element(element).master_copy
        assert copy.store.get(
            f"sub:{mates[0].identities.imsi}")["servingMsc"] == "before"
        assert copy.store.get(
            f"sub:{mates[1].identities.imsi}")["servingMsc"] == "after"
        # The duplicate create must not have clobbered the existing record
        # with a fresh profile copy.
        assert copy.store.get(
            f"sub:{existing.identities.imsi}")["servingMsc"] == "before"

    def test_read_after_write_in_wave_sees_the_write(self):
        """A read later in the wave flushes the open group on its
        partition, so it observes its wave-mates' writes exactly as the
        sequential path would."""
        udr, profiles = self.coalescing_udr()
        profile = profiles[0]
        dn = SubscriberSchema.subscriber_dn(profile.identities.imsi)
        site = udr.topology.sites[0]
        items = [
            BatchItem(ModifyRequest(dn=dn,
                                    changes={"servingMsc": "fresh"}),
                      ClientType.PROVISIONING, site),
            BatchItem(SearchRequest(dn=dn), ClientType.PROVISIONING, site),
        ]
        responses = run_to_completion(udr, udr.pipeline.execute_batch(items))
        assert [r.result_code.name for r in responses] == \
            ["SUCCESS", "SUCCESS"]
        assert responses[1].entries[0]["servingMsc"] == "fresh"

    def test_coalescing_off_keeps_per_write_transactions(self):
        udr, profiles = build_udr(config=UDRConfig(seed=7), subscribers=48)
        mates = self.partition_mates(udr, profiles, 2)
        element = udr.deployment.authoritative_lookup(
            "imsi", mates[0].identities.imsi)
        copy = udr.deployment.replica_set_of_element(element).master_copy
        commits_before = copy.transactions.commits
        site = udr.topology.sites[0]
        items = [BatchItem(ModifyRequest(
            dn=SubscriberSchema.subscriber_dn(mate.identities.imsi),
            changes={"servingMsc": "x"}), ClientType.PROVISIONING, site)
            for mate in mates]
        run_to_completion(udr, udr.pipeline.execute_batch(items))
        assert copy.transactions.commits == commits_before + 2
        assert udr.metrics.counter("batch.coalesced.groups") == 0

    @staticmethod
    def inject_conflict(udr, on_call: int):
        """Make the ``on_call``-th apply_plan call hit a WriteConflict,
        faithful to Transaction.write's no-wait locking (the conflict
        aborts the whole transaction before raising)."""
        from repro.storage.errors import WriteConflict
        write_path = udr.pipeline.write_path
        original_apply = write_path.apply_plan
        calls = []

        def conflicted_apply(transaction, plan):
            calls.append(plan.identity_value)
            if len(calls) == on_call:
                transaction.abort(reason="injected conflict")
                raise WriteConflict(plan.identity_value, holder=-1,
                                    requester=transaction.transaction_id)
            return original_apply(transaction, plan)

        write_path.apply_plan = conflicted_apply

    @pytest.mark.parametrize("conflict_on_call", [1, 2])
    def test_conflict_abort_falls_back_to_per_record_retry(
            self, conflict_on_call):
        """A WriteConflict from outside the wave aborts the shared
        transaction.  Already-applied group-mates lost their (uncommitted)
        writes through no fault of their own, so they are re-driven through
        the per-record path and still succeed; only the conflicting record
        answers BUSY, which the retry policy then re-drives too."""
        from repro.core import RetryPolicy
        udr, profiles = build_udr(
            config=UDRConfig(seed=7, coalesce_writes=True), subscribers=48)
        mates = self.partition_mates(udr, profiles, 2)
        site = udr.topology.sites[0]
        self.inject_conflict(udr, on_call=conflict_on_call)
        items = [BatchItem(ModifyRequest(
            dn=SubscriberSchema.subscriber_dn(mate.identities.imsi),
            changes={"servingMsc": "retried"}),
            ClientType.PROVISIONING, site,
            retry_policy=RetryPolicy(max_retries=2)) for mate in mates]
        responses = run_to_completion(udr, udr.pipeline.execute_batch(items))
        assert [r.result_code.name for r in responses] == \
            ["SUCCESS", "SUCCESS"]
        assert udr.metrics.counter("batch.coalesced.aborts") == 1
        for mate in mates:
            element = udr.deployment.authoritative_lookup(
                "imsi", mate.identities.imsi)
            copy = udr.deployment.replica_set_of_element(
                element).master_copy
            record = copy.store.get(f"sub:{mate.identities.imsi}")
            assert record["servingMsc"] == "retried"

    def test_conflict_abort_without_policy_only_fails_the_conflicter(self):
        """Without a retry policy the conflicting record keeps its BUSY
        verdict, but its innocent group-mates are still completed -- the
        outcome sequential execution would have produced."""
        udr, profiles = build_udr(
            config=UDRConfig(seed=7, coalesce_writes=True), subscribers=48)
        mates = self.partition_mates(udr, profiles, 2)
        site = udr.topology.sites[0]
        self.inject_conflict(udr, on_call=2)
        items = [BatchItem(ModifyRequest(
            dn=SubscriberSchema.subscriber_dn(mate.identities.imsi),
            changes={"servingMsc": "kept"}),
            ClientType.PROVISIONING, site) for mate in mates]
        responses = run_to_completion(udr, udr.pipeline.execute_batch(items))
        assert [r.result_code.name for r in responses] == \
            ["SUCCESS", "BUSY"]
        element = udr.deployment.authoritative_lookup(
            "imsi", mates[0].identities.imsi)
        copy = udr.deployment.replica_set_of_element(element).master_copy
        assert copy.store.get(
            f"sub:{mates[0].identities.imsi}")["servingMsc"] == "kept"

    def test_conflict_abort_restores_deleted_identities(self):
        """A DELETE whose eager deregistration was voided by a group abort
        must be locatable again for its re-drive -- and end up deleted,
        exactly as sequential execution would leave it."""
        from repro.ldap import DeleteRequest
        udr, profiles = build_udr(
            config=UDRConfig(seed=7, coalesce_writes=True), subscribers=48)
        mates = self.partition_mates(udr, profiles, 2)
        site = udr.topology.sites[0]
        self.inject_conflict(udr, on_call=2)
        items = [
            BatchItem(DeleteRequest(dn=SubscriberSchema.subscriber_dn(
                mates[0].identities.imsi)), ClientType.PROVISIONING, site),
            BatchItem(ModifyRequest(
                dn=SubscriberSchema.subscriber_dn(mates[1].identities.imsi),
                changes={"servingMsc": "x"}), ClientType.PROVISIONING,
                site),
        ]
        responses = run_to_completion(udr, udr.pipeline.execute_batch(items))
        assert [r.result_code.name for r in responses] == \
            ["SUCCESS", "BUSY"]
        # The delete was re-driven after the abort: gone from the store
        # and from every locator.
        assert udr.deployment.authoritative_lookup(
            "imsi", mates[0].identities.imsi) is None

    def test_replication_shortfall_unregisters_like_sequential(self):
        """Under quorum replication with the replica down, a coalesced
        CREATE earns the same non-retryable UNAVAILABLE as the sequential
        path -- and, like it, leaves the newcomer unregistered (sequential
        raises before register_identities runs)."""
        from repro.core import ReplicationMode

        def build(coalesce):
            return build_udr(config=UDRConfig(
                seed=7, coalesce_writes=coalesce,
                replication_mode=ReplicationMode.QUORUM),
                subscribers=48)

        from repro.directory.errors import UnknownIdentity

        def registered_anywhere(udr, imsi):
            for locator in udr.locators.values():
                try:
                    locator.locate("imsi", imsi)
                    return True
                except UnknownIdentity:
                    continue
            return False

        outcomes = {}
        for coalesce in (False, True):
            udr, profiles = build(coalesce)
            newcomer = SubscriberGenerator(udr.config.regions,
                                           seed=515).generate_one()
            # Find where the newcomer would be placed (home-region
            # placement is deterministic), then crash that partition's
            # replica so the write quorum of 2 cannot be reached.
            placed = udr.deployment.place_subscriber(
                newcomer, newcomer.identities.imsi)
            replica_set = udr.deployment.replica_set_of_element(placed)
            for slave in replica_set.slave_names():
                udr.elements[slave].crash(timestamp=udr.sim.now)
            site = udr.topology.sites[0]
            items = [BatchItem(AddRequest(
                dn=SubscriberSchema.subscriber_dn(newcomer.identities.imsi),
                attributes=newcomer.to_record()),
                ClientType.PROVISIONING, site)]
            responses = run_to_completion(
                udr, udr.pipeline.execute_batch(items))
            outcomes[coalesce] = (
                responses[0].result_code.name,
                registered_anywhere(udr, newcomer.identities.imsi))
        assert outcomes[True] == outcomes[False]
        assert outcomes[True][0] == "UNAVAILABLE"
        assert outcomes[True][1] is False, \
            "a create that failed its durability bar must stay unregistered"

    @pytest.mark.parametrize("max_retries", [None, 1])
    def test_fence_at_flush_redrives_members_like_per_record(
            self, max_retries):
        """The group's write copy is fenced between apply and flush (its
        master deposed mid-wave): the shared commit is refused, the group
        counts in ``batch.coalesced.fenced``, and every member is re-driven
        through the per-record path.  Each answers exactly what the
        per-record path answers on that fenced copy, the modified record is
        untouched, and the discarded CREATE is not locatable anywhere."""
        from repro.core import RetryPolicy
        from repro.directory.errors import UnknownIdentity
        policy = None if max_retries is None else \
            RetryPolicy(max_retries=max_retries)
        outcomes = {}
        for coalesce in (False, True):
            udr, profiles = build_udr(config=UDRConfig(
                seed=7, coalesce_writes=coalesce), subscribers=48)
            newcomer = SubscriberGenerator(udr.config.regions,
                                           seed=515).generate_one()
            placed = udr.deployment.place_subscriber(
                newcomer, newcomer.identities.imsi)
            mate = next(profile for profile in profiles
                        if udr.deployment.authoritative_lookup(
                            "imsi", profile.identities.imsi) == placed)
            transactions = udr.deployment.replica_set_of_element(
                placed).master_copy.transactions
            if coalesce:
                # Fence when the group's flush starts: every record is
                # applied, the commit has not run yet.
                service_times = udr.elements[placed].service_times
                charge = service_times.commit_charge

                def fence_then_charge(synchronous_commit=False,
                                      charge=charge,
                                      transactions=transactions):
                    transactions.self_fence(reason="deposed mid-wave")
                    return charge(synchronous_commit)

                service_times.commit_charge = fence_then_charge
            else:
                # The per-record path commits each write on its own, so
                # the fence it can meet is one already in place.
                transactions.self_fence(reason="deposed mid-wave")
            site = udr.topology.sites[0]
            items = [
                BatchItem(AddRequest(
                    dn=SubscriberSchema.subscriber_dn(
                        newcomer.identities.imsi),
                    attributes=newcomer.to_record()),
                    ClientType.PROVISIONING, site, retry_policy=policy),
                BatchItem(ModifyRequest(
                    dn=SubscriberSchema.subscriber_dn(mate.identities.imsi),
                    changes={"servingMsc": "fenced"}),
                    ClientType.PROVISIONING, site, retry_policy=policy),
            ]
            responses = run_to_completion(
                udr, udr.pipeline.execute_batch(items))
            outcomes[coalesce] = [(response.result_code.name,
                                   response.attempts)
                                  for response in responses]
            assert udr.metrics.counter("batch.coalesced.fenced") == \
                (1 if coalesce else 0)
            assert udr.metrics.counter("batch.coalesced.groups") == 0
            assert udr.deployment.replica_set_of_element(
                placed).master_copy.store.get(
                f"sub:{mate.identities.imsi}")["servingMsc"] != "fenced"
            assert udr.deployment.authoritative_lookup(
                "imsi", newcomer.identities.imsi) is None
            for locator in udr.locators.values():
                with pytest.raises(UnknownIdentity):
                    locator.locate("imsi", newcomer.identities.imsi)
        assert outcomes[True] == outcomes[False]
        assert [code for code, _attempts in outcomes[True]] == \
            ["FENCED", "FENCED"]

    def test_dispatcher_with_coalescing_end_to_end(self):
        udr, profiles = dispatcher_udr(coalesce_writes=True)
        mates = self.partition_mates(udr, profiles, 2)
        site = udr.topology.sites[0]
        tickets = [udr.dispatcher.submit(ModifyRequest(
            dn=SubscriberSchema.subscriber_dn(mate.identities.imsi),
            changes={"servingMsc": "wave"}), ClientType.PROVISIONING, site)
            for mate in mates]
        wait_all(udr, tickets)
        assert all(t.event.value.result_code.name == "SUCCESS"
                   for t in tickets)
        assert udr.metrics.counter("batch.coalesced.groups") >= 1


class TestSavepoints:
    def test_rollback_to_savepoint_discards_later_writes(self):
        from repro.storage.engine import RecordStore
        from repro.storage.transactions import TransactionManager
        from repro.storage.wal import WriteAheadLog
        store = RecordStore(name="sp")
        manager = TransactionManager(store, WriteAheadLog(name="sp"))
        transaction = manager.begin()
        transaction.write("kept", {"value": 1})
        savepoint = transaction.savepoint()
        transaction.write("dropped", {"value": 2})
        transaction.rollback_to(savepoint)
        transaction.commit()
        assert store.get("kept") == {"value": 1}
        assert store.get("dropped") is None

    def test_rollback_restores_overwritten_value(self):
        from repro.storage.engine import RecordStore
        from repro.storage.transactions import TransactionManager
        from repro.storage.wal import WriteAheadLog
        store = RecordStore(name="sp2")
        manager = TransactionManager(store, WriteAheadLog(name="sp2"))
        transaction = manager.begin()
        transaction.write("key", {"value": "old"})
        savepoint = transaction.savepoint()
        transaction.write("key", {"value": "new"})
        transaction.rollback_to(savepoint)
        transaction.commit()
        assert store.get("key") == {"value": "old"}

    def test_foreign_savepoint_rejected(self):
        from repro.storage.engine import RecordStore
        from repro.storage.errors import TransactionStateError
        from repro.storage.transactions import TransactionManager
        from repro.storage.wal import WriteAheadLog
        store = RecordStore(name="sp3")
        manager = TransactionManager(store, WriteAheadLog(name="sp3"))
        first = manager.begin()
        savepoint = first.savepoint()
        first.commit()
        second = manager.begin()
        with pytest.raises(TransactionStateError):
            second.rollback_to(savepoint)
