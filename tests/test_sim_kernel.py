"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    EventStatus,
    Interrupt,
    Simulation,
    SimulationError,
    Timeout,
    units,
)


def iter_once(sim, fired):
    fired.append("process")
    yield sim.timeout(0.0)


class TestClock:
    def test_time_starts_at_zero(self):
        sim = Simulation()
        assert sim.now == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulation()
        sim.timeout(2.5)
        sim.run()
        assert sim.now == 2.5

    def test_run_until_stops_before_future_events(self):
        sim = Simulation()
        fired = []
        sim.timeout(10.0).add_callback(lambda e: fired.append(sim.now))
        sim.run(until=5.0)
        assert fired == []
        assert sim.now == 5.0
        sim.run()
        assert fired == [10.0]

    def test_run_until_past_time_rejected(self):
        sim = Simulation()
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_run_for_is_relative(self):
        sim = Simulation()
        sim.run_for(3.0)
        sim.run_for(4.0)
        assert sim.now == 7.0

    def test_peek_reports_next_event_time(self):
        sim = Simulation()
        assert sim.peek() == float("inf")
        sim.timeout(4.0)
        assert sim.peek() == 4.0

    def test_negative_timeout_rejected(self):
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)


class TestEvents:
    def test_succeed_delivers_value(self):
        sim = Simulation()
        event = sim.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed("hello")
        sim.run()
        assert seen == ["hello"]

    def test_double_trigger_rejected(self):
        sim = Simulation()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self):
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")

    def test_unwaited_failure_surfaces(self):
        sim = Simulation()
        sim.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_callback_after_processing_runs_immediately(self):
        sim = Simulation()
        event = sim.event()
        event.succeed(41)
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value + 1))
        assert seen == [42]

    def test_value_before_trigger_raises(self):
        sim = Simulation()
        with pytest.raises(SimulationError):
            _ = sim.event().value


class TestProcesses:
    def test_process_runs_and_returns_value(self):
        sim = Simulation()

        def proc(sim):
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            return "done"

        process = sim.process(proc(sim))
        sim.run()
        assert process.ok
        assert process.value == "done"
        assert sim.now == 3.0

    def test_processes_interleave_in_time_order(self):
        sim = Simulation()
        order = []

        def proc(sim, label, delay):
            yield sim.timeout(delay)
            order.append((label, sim.now))

        sim.process(proc(sim, "slow", 5.0))
        sim.process(proc(sim, "fast", 1.0))
        sim.run()
        assert order == [("fast", 1.0), ("slow", 5.0)]

    def test_process_waits_on_other_process(self):
        sim = Simulation()

        def child(sim):
            yield sim.timeout(2.0)
            return 10

        def parent(sim):
            value = yield sim.process(child(sim))
            return value * 2

        parent_proc = sim.process(parent(sim))
        sim.run()
        assert parent_proc.value == 20

    def test_exception_in_process_propagates_to_waiter(self):
        sim = Simulation()

        def failing(sim):
            yield sim.timeout(1.0)
            raise ValueError("broken")

        def waiter(sim, log):
            try:
                yield sim.process(failing(sim))
            except ValueError as exc:
                log.append(str(exc))

        log = []
        sim.process(waiter(sim, log))
        sim.run()
        assert log == ["broken"]

    def test_uncaught_process_exception_surfaces(self):
        sim = Simulation()

        def failing(sim):
            yield sim.timeout(1.0)
            raise ValueError("unseen")

        sim.process(failing(sim))
        with pytest.raises(ValueError, match="unseen"):
            sim.run()

    def test_yielding_non_event_fails_process(self):
        sim = Simulation()

        def bad(sim):
            yield 42

        process = sim.process(bad(sim))
        with pytest.raises(SimulationError):
            sim.run()
        assert not process.ok

    def test_process_requires_generator(self):
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_interrupt_delivers_cause(self):
        sim = Simulation()
        causes = []

        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                causes.append((sim.now, interrupt.cause))
                return "interrupted"

        process = sim.process(sleeper(sim))

        def interrupter(sim):
            yield sim.timeout(1.0)
            process.interrupt("blade failure")

        sim.process(interrupter(sim))
        sim.run()
        assert causes == [(1.0, "blade failure")]
        assert process.value == "interrupted"

    def test_interrupting_finished_process_is_noop(self):
        sim = Simulation()

        def quick(sim):
            yield sim.timeout(0.5)

        process = sim.process(quick(sim))
        sim.run()
        process.interrupt("late")  # must not raise
        assert process.ok


class TestConditions:
    def test_all_of_collects_values(self):
        sim = Simulation()
        condition = sim.all_of([sim.timeout(1.0, value="a"),
                                sim.timeout(3.0, value="b")])
        results = []
        condition.add_callback(lambda e: results.append((sim.now, e.value)))
        sim.run()
        assert results == [(3.0, ["a", "b"])]

    def test_any_of_returns_first(self):
        sim = Simulation()
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(9.0, value="slow")
        condition = sim.any_of([fast, slow])
        results = []
        condition.add_callback(lambda e: results.append(e.value))
        sim.run()
        winner, value = results[0]
        assert winner is fast
        assert value == "fast"

    def test_empty_all_of_triggers_immediately(self):
        sim = Simulation()
        condition = sim.all_of([])
        assert condition.triggered

    def test_all_of_with_processed_children_waits_for_pending_ones(self):
        """Regression: AllOf over a mix of already-processed and pending
        events must wait for the pending ones.  The incremental pending
        count used to hit zero after the first processed child, triggering
        the condition while later children were still outstanding."""
        sim = Simulation()
        done_early = sim.event("early")
        done_early.succeed("early")
        sim.run()  # process the early event fully
        late = sim.timeout(5.0, value="late")
        condition = sim.all_of([done_early, late])
        assert not condition.triggered
        results = []
        condition.add_callback(lambda e: results.append((sim.now, e.value)))
        sim.run()
        assert results == [(5.0, ["early", "late"])]

    def test_all_of_fails_when_child_fails(self):
        sim = Simulation()

        def failing(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("child failed")

        def waiter(sim, log):
            try:
                yield sim.all_of([sim.process(failing(sim)), sim.timeout(5.0)])
            except RuntimeError as exc:
                log.append(str(exc))

        log = []
        sim.process(waiter(sim, log))
        sim.run()
        assert log == ["child failed"]


class TestKernelContract:
    """The lean per-event path keeps the kernel's observable contract."""

    def test_events_are_slotted(self):
        sim = Simulation()

        def proc(sim):
            yield sim.timeout(1.0)

        for event in (sim.event(), sim.timeout(0.5), sim.process(proc(sim)),
                      sim.all_of([]), sim.any_of([sim.timeout(1.0)])):
            assert not hasattr(event, "__dict__"), type(event).__name__

    def test_default_labels_appear_in_repr(self):
        sim = Simulation()

        def heartbeat(sim):
            yield sim.timeout(1.0)

        assert repr(sim.timeout(0.5)) == "<Timeout(0.5) status=triggered>"
        assert repr(sim.timeout(0.5, value="v")).startswith("<Timeout(0.5) ")
        assert "heartbeat" in repr(sim.process(heartbeat(sim)))
        assert "ticker" in repr(sim.process(heartbeat(sim), name="ticker"))
        assert repr(sim.event()) == "<Event status=pending>"
        assert repr(sim.event("named")) == "<named status=pending>"

    def test_double_trigger_message_names_the_timeout(self):
        sim = Simulation()
        with pytest.raises(SimulationError, match=r"Timeout\(2\.0\)"):
            sim.timeout(2.0).succeed()

    def test_yielding_event_of_another_simulation_fails_process(self):
        sim, other = Simulation(), Simulation()

        def stray(sim):
            yield other.timeout(1.0)

        process = sim.process(stray(sim), name="stray")
        with pytest.raises(SimulationError, match="different simulation"):
            sim.run()
        assert not process.ok

    def test_run_dispatches_every_event_through_step(self, monkeypatch):
        sim = Simulation()
        steps, processed = [], []
        step, process_event = Simulation.step, Event._process

        def counting_step(self):
            steps.append(self.now)
            step(self)

        def counting_process(self):
            processed.append(self)
            process_event(self)

        monkeypatch.setattr(Simulation, "step", counting_step)
        monkeypatch.setattr(Event, "_process", counting_process)

        def proc(sim):
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        sim.process(proc(sim))   # bootstrap, 2 timeouts, completion
        for delay in (0.5, 1.5, 3.0):
            sim.timeout(delay)
        sim.timeout(2.5).cancel()
        sim.run()
        assert len(processed) == 7
        assert len(steps) == len(processed)
        assert sim.now == 3.0

    def test_zero_delay_ties_run_in_scheduling_order(self):
        """Events due at one instant run first-scheduled first: heap
        entries are ``(time, sequence, event)``, nothing else breaks ties."""
        sim = Simulation()
        fired = []
        sim.timeout(1.0).add_callback(lambda e: fired.append("timeout"))
        for label in "abcde":
            event = sim.event()
            event.add_callback(lambda e, label=label: fired.append(label))
            event.succeed()
        sim.process(iter_once(sim, fired))
        assert all(len(entry) == 3 for entry in sim._queue)
        sim.run()
        assert fired == ["a", "b", "c", "d", "e", "process", "timeout"]

    def test_cancelled_heap_top_is_skipped(self):
        sim = Simulation()
        fired = []
        early = sim.timeout(1.0)
        early.add_callback(lambda e: fired.append("early"))
        late = sim.timeout(2.0)
        late.add_callback(lambda e: fired.append(sim.now))
        early.cancel()
        sim.run()
        assert fired == [2.0]
        assert early.status is EventStatus.TRIGGERED

    def test_event_cancelled_while_pending_never_runs(self):
        # Cancelled before it was scheduled, so only the heap-top test (not
        # the cancelled-entry count) can find it.
        sim = Simulation()
        fired = []
        event = sim.event()
        event.add_callback(lambda e: fired.append("cancelled"))
        event.cancel()
        event.succeed()
        assert sim._cancelled_scheduled == 0
        sim.timeout(1.0).add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [1.0]

    def test_mass_cancellation_compacts_the_heap(self):
        sim = Simulation()
        stale = [sim.timeout(100.0 + i) for i in range(40)]
        live = [sim.timeout(1.0 + i) for i in range(5)]
        for event in stale:
            event.cancel()
        assert len(sim._queue) == 45
        sim.step()
        assert len(sim._queue) == len(live) - 1
        assert sim._cancelled_scheduled == 0
        assert sim.now == 1.0

    def test_run_until_over_only_cancelled_entries_reaches_until(self):
        sim = Simulation()
        fired = []
        for delay in (1.0, 2.0):
            event = sim.timeout(delay)
            event.add_callback(lambda e: fired.append(sim.now))
            event.cancel()
        assert sim.run(until=5.0) == 5.0
        assert sim.now == 5.0
        assert fired == []
        assert sim.peek() == float("inf")


class TestDeterminism:
    def test_same_seed_same_samples(self):
        first = [Simulation(seed=11).rng("net").random() for _ in range(5)]
        second = [Simulation(seed=11).rng("net").random() for _ in range(5)]
        assert first == second

    def test_different_streams_are_independent(self):
        sim = Simulation(seed=11)
        a = sim.rng("net").random()
        b = sim.rng("workload").random()
        assert a != b

    def test_named_stream_is_cached(self):
        sim = Simulation(seed=3)
        assert sim.rng("x") is sim.rng("x")


class TestUnits:
    def test_five_nines_downtime_budget(self):
        budget = units.downtime_budget(units.FIVE_NINES)
        assert budget == pytest.approx(315.36, rel=1e-3)

    def test_availability_from_downtime_roundtrip(self):
        downtime = units.downtime_budget(0.999)
        assert units.availability_from_downtime(downtime) == pytest.approx(0.999)

    def test_millisecond_conversions(self):
        assert units.milliseconds(10) == pytest.approx(0.010)
        assert units.to_milliseconds(0.010) == pytest.approx(10.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            units.downtime_budget(1.5)
        with pytest.raises(ValueError):
            units.availability_from_downtime(1.0, period=0.0)
