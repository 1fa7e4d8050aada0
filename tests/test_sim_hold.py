"""``Simulation.hold`` elides a hop only when nothing can tell.

A ``run()`` / ``run_until_triggered()`` loop lets :meth:`Simulation.hold`
move the clock in place when the wait's timeout would be the next event
the loop pops.  A caller driving the kernel with bare ``step()`` calls
never sees an elision, so the same program driven that way is the
reference: both must produce the same ``(now, process, action)`` trace
and end at the same time.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (EventStatus, Interrupt, Simulation,
                       SimulationError)


class Boom(Exception):
    """The failure a program's ``fail`` action delivers."""


class World:
    """One program's shared state: its processes, one-shot events
    (replaced as they trigger, so a slot can wake waiters again), armed
    timers and the trace."""

    def __init__(self, sim, events):
        self.sim = sim
        self.events = [sim.event() for _ in range(events)]
        self.procs = []
        self.timers = []
        self.trace = []

    def trigger(self, slot, who, succeed):
        """Succeed or fail the slot's event and put a fresh one there."""
        event = self.events[slot]
        self.events[slot] = self.sim.event()
        if succeed:
            event.succeed(who)
        else:
            event.defused = True
            event.fail(Boom(who))

    def note(self, who, action):
        self.trace.append((self.sim.now, who, action))


def perform(world, who, action):
    """Generator: one program action of process ``who``."""
    sim = world.sim
    kind = action[0]
    if kind == "hold":
        yield from sim.hold(action[1])
        world.note(who, f"held {action[1]}")
    elif kind == "wait":
        value = yield world.events[action[1]]
        world.note(who, f"woke {value}")
    elif kind in ("succeed", "fail"):
        world.trigger(action[1], who, kind == "succeed")
        world.note(who, f"{kind} {action[1]}")
    elif kind == "signal":
        # A timer wakes the slot's waiters, the way the dispatcher's
        # timers do: no process runs between the wake and the waiters.
        timer = sim.timeout(action[1])
        timer.callbacks.append(
            lambda _e: world.trigger(action[2], "timer", True))
        world.note(who, f"signal {action[2]}")
    elif kind == "interrupt":
        target = world.procs[action[1]]
        if target.name != who:
            target.interrupt(who)
        world.note(who, f"interrupt {action[1]}")
    elif kind == "arm":
        timer = sim.timeout(action[1])
        label = f"timer{len(world.timers)}"
        timer.callbacks.append(lambda _e: world.note(label, "fired"))
        world.timers.append(timer)
        world.note(who, f"armed {label}")
    elif kind == "cancel":
        if action[1] < len(world.timers):
            world.timers[action[1]].cancel()
        world.note(who, f"cancel {action[1]}")
    elif kind == "race":
        deadline = sim.timeout(action[1])
        winner, _value = yield sim.any_of([deadline,
                                           world.events[action[2]]])
        if winner is not deadline:
            deadline.cancel()
        world.note(who, "race " + ("deadline" if winner is deadline
                                   else "event"))
    elif kind == "join":
        target = world.procs[action[1]]
        if target.name != who:
            value = yield target
            world.note(who, f"joined {value}")
    elif kind == "nested":
        for inner in action[1]:
            yield from perform(world, who, inner)
        world.note(who, "nested done")


def body(world, who, actions):
    """Generator: a process running its actions; a failure or interrupt
    delivered into an action is noted and the next action runs."""
    for action in actions:
        try:
            yield from perform(world, who, action)
        except Interrupt as interrupt:
            world.note(who, f"interrupted by {interrupt.cause}")
        except Exception as error:  # noqa: BLE001 - noted in the trace
            world.note(who, f"caught {type(error).__name__} {error}")
    return who


def elided_drive(sim, stop, awaited):
    """Run the stop condition through the kernel's own loops."""
    if stop[0] == "until":
        sim.run(until=sim.now + stop[1])
    elif awaited is None:
        sim.run()
    else:
        limit = None if stop[2] is None else sim.now + stop[2]
        sim.run_until_triggered(awaited, limit=limit)


def stepped_drive(sim, stop, awaited):
    """The same stop condition through bare ``step()`` calls."""
    if stop[0] == "until":
        until = sim.now + stop[1]
    else:
        until = float("inf") if awaited is None or stop[2] is None \
            else sim.now + stop[2]
    while awaited is None or not awaited.triggered:
        due = sim.peek()
        if due == float("inf") or due > until:
            break
        sim.step()
    if stop[0] == "until":
        sim.now = max(sim.now, until)


def run_program(programs, events, stops, drive):
    """Run ``programs`` under ``stops`` then to the end; returns the trace
    (ending with any error the kernel raised), the final clock and each
    process's outcome."""
    sim = Simulation(seed=1)
    world = World(sim, events)
    for index, actions in enumerate(programs):
        world.procs.append(sim.process(body(world, f"p{index}", actions),
                                       name=f"p{index}"))
    try:
        for stop in stops + [("triggered", None, None)]:
            awaited = None
            if stop[0] == "triggered" and stop[1] is not None:
                kind, index = stop[1]
                awaited = world.procs[index % len(world.procs)] \
                    if kind == "process" else world.events[index]
            drive(sim, stop, awaited)
            world.note("driver", f"stopped {stop[0]}")
    except Exception as error:  # noqa: BLE001 - part of the compared trace
        world.note("driver", f"raised {type(error).__name__}")
    outcomes = [(proc.triggered, proc.ok and proc.triggered)
                for proc in world.procs]
    return world.trace, sim.now, outcomes


DELAYS = st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.5, 1.0, 1.5])
EVENTS = 2
PROCS = 4
SLOT = st.integers(0, EVENTS - 1)
PROC = st.integers(0, PROCS - 1)
HOLD = st.tuples(st.just("hold"), DELAYS)
WAIT = st.tuples(st.just("wait"), SLOT)
# Holds and waits are drawn three times as often as the other actions:
# several waiters woken at once that then hold is where an elision
# could run one of them ahead of the others.
SIMPLE = st.one_of(
    HOLD, HOLD, HOLD, WAIT, WAIT, WAIT,
    st.tuples(st.just("succeed"), SLOT),
    st.tuples(st.just("fail"), SLOT),
    st.tuples(st.just("signal"), DELAYS, SLOT),
    st.tuples(st.just("interrupt"), PROC),
    st.tuples(st.just("arm"), DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 3)),
    st.tuples(st.just("race"), DELAYS, SLOT),
    st.tuples(st.just("join"), PROC),
)
# A nested helper that waits on a slot and then holds: drawn often, so
# that one wake resumes several waiters that hold at once.
WAKE_THEN_HOLD = st.tuples(st.just("nested"), st.tuples(WAIT, HOLD))
ACTION = st.one_of(SIMPLE, WAKE_THEN_HOLD, WAKE_THEN_HOLD,
                   st.tuples(st.just("signal"), DELAYS, SLOT),
                   st.tuples(st.just("nested"),
                             st.lists(SIMPLE, max_size=3)))
PROGRAMS = st.lists(st.lists(ACTION, max_size=8), min_size=1,
                    max_size=PROCS)
STOPS = st.lists(st.one_of(
    st.tuples(st.just("until"), st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5])),
    st.tuples(st.just("triggered"),
              st.tuples(st.sampled_from(["process", "event"]),
                        st.integers(0, EVENTS - 1)),
              st.sampled_from([None, 0.0, 0.5, 2.0]))), max_size=4)


@settings(max_examples=400, deadline=None)
@given(programs=PROGRAMS, stops=STOPS)
def test_elided_run_matches_the_stepped_reference(programs, stops):
    elided = run_program(programs, EVENTS, stops, elided_drive)
    stepped = run_program(programs, EVENTS, stops, stepped_drive)
    assert elided == stepped


def _hopper(sim, trace, name, event):
    yield event
    trace.append((sim.now, name))
    yield from sim.hold(1.0)
    trace.append((sim.now, name))


@pytest.mark.parametrize("drive", ["run", "step"])
def test_one_event_waking_three_waiters_runs_them_all_first(drive):
    """The first waiter's hold must not run it ahead of the other two."""
    sim = Simulation()
    trace = []
    wake = sim.event()
    for name in "abc":
        sim.process(_hopper(sim, trace, name, wake))
    sim.timeout(0.5).callbacks.append(lambda _e: wake.succeed())
    if drive == "run":
        sim.run()
    else:
        while sim.peek() < float("inf"):
            sim.step()
    assert trace == [(0.5, "a"), (0.5, "b"), (0.5, "c"),
                     (1.5, "a"), (1.5, "b"), (1.5, "c")]


class TestHold:
    @staticmethod
    def _counting(sim, monkeypatch):
        steps = []
        step = Simulation.step

        def counting_step(self):
            steps.append(self.now)
            step(self)

        monkeypatch.setattr(Simulation, "step", counting_step)
        return steps

    def test_a_lone_process_holds_without_events(self, monkeypatch):
        sim = Simulation()
        steps = self._counting(sim, monkeypatch)
        seen = []

        def worker(sim):
            for _ in range(5):
                yield from sim.hold(0.5)
                seen.append(sim.now)

        process = sim.process(worker(sim))
        sim.run()
        assert seen == [0.5, 1.0, 1.5, 2.0, 2.5]
        assert process.ok
        # The bootstrap and the completion are events; the holds are not.
        assert len(steps) == 2

    def test_bare_steps_see_every_hold_as_an_event(self):
        sim = Simulation()

        def worker(sim):
            yield from sim.hold(0.5)
            yield from sim.hold(0.5)

        sim.process(worker(sim))
        sim.step()
        assert sim.now == 0.0 and sim.peek() == 0.5
        sim.step()
        assert sim.now == 0.5 and sim.peek() == 1.0

    def test_a_hold_past_until_stays_queued(self):
        sim = Simulation()
        seen = []

        def worker(sim):
            yield from sim.hold(1.0)
            seen.append(sim.now)
            yield from sim.hold(1.0)
            seen.append(sim.now)

        sim.process(worker(sim))
        sim.run(until=1.5)
        assert seen == [1.0] and sim.now == 1.5
        assert sim.peek() == 2.0
        sim.run(until=2.0)
        assert seen == [1.0, 2.0]

    def test_a_tie_with_a_queued_event_lets_it_run_first(self):
        sim = Simulation()
        order = []

        def worker(sim):
            yield from sim.hold(1.0)
            order.append("worker")

        sim.process(worker(sim))
        sim.timeout(1.0).callbacks.append(lambda _e: order.append("timer"))
        sim.run()
        assert order == ["timer", "worker"]

    def test_a_triggered_awaited_event_stops_the_elision(self):
        sim = Simulation()
        done = sim.event()
        seen = []

        def worker(sim):
            yield from sim.hold(1.0)
            done.succeed()
            yield from sim.hold(1.0)
            seen.append(sim.now)

        sim.process(worker(sim))
        assert sim.run_until_triggered(done) == 1.0
        assert seen == []
        sim.run()
        assert seen == [2.0]

    def test_an_awaited_event_marked_in_place_stops_the_elision(self):
        """An event can become triggered without a heap entry (the
        dispatcher's keyed waiters are marked processed in place); the
        loop stops there, so the next hold must stay an event."""
        sim = Simulation()
        done = sim.event()
        seen = []

        def worker(sim):
            yield from sim.hold(1.0)
            done._status = EventStatus.PROCESSED
            yield from sim.hold(1.0)
            seen.append(sim.now)

        sim.process(worker(sim))
        assert sim.run_until_triggered(done) == 1.0
        assert seen == []
        sim.run()
        assert seen == [2.0]

    def test_negative_hold_rejected(self):
        sim = Simulation()
        failures = []

        def worker(sim):
            try:
                yield from sim.hold(-1.0)
            except SimulationError as error:
                failures.append(error)

        sim.process(worker(sim))
        sim.run()
        assert len(failures) == 1 and sim.now == 0.0
