"""Unit tests for the discrete-event simulator core."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator, TaskFailed


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_schedule_runs_callback_at_right_time():
    sim = Simulator()
    seen = []
    sim.schedule(500, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [500]


def test_schedule_order_is_time_then_fifo():
    sim = Simulator()
    seen = []
    sim.schedule(10, seen.append, "b")
    sim.schedule(5, seen.append, "a")
    sim.schedule(10, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_schedule_zero_delay_runs_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(100, lambda: sim.schedule(0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [100]


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_float_delay_rounds_half_up():
    # Regression: int(delay_us) silently truncated fractional delays, so
    # a 0.999 us pace ran the clock fast (0.999 -> 0).  Fractions now
    # round half up to the nearest whole microsecond.
    sim = Simulator()
    seen = []
    sim.schedule(0.999, lambda: seen.append(sim.now))
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.schedule(2.4, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1, 2, 3]


def test_schedule_float_delay_keeps_integer_clock():
    sim = Simulator()
    times = []

    def hop(n):
        times.append(sim.now)
        if n:
            sim.schedule(1.5, hop, n - 1)

    sim.schedule(1.5, hop, 3)
    sim.run()
    assert times == [2, 4, 6, 8]
    assert all(type(t) is int for t in times)


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(777, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [777]


def test_timer_cancel_prevents_firing():
    sim = Simulator()
    seen = []
    timer = sim.schedule(100, seen.append, "x")
    timer.cancel()
    sim.run()
    assert seen == []


def test_timer_cancel_is_idempotent():
    sim = Simulator()
    timer = sim.schedule(100, lambda: None)
    timer.cancel()
    timer.cancel()
    sim.run()


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(100, seen.append, "early")
    sim.schedule(900, seen.append, "late")
    sim.run(until_us=500)
    assert seen == ["early"]
    assert sim.now == 500
    sim.run()
    assert seen == ["early", "late"]


def test_run_until_advances_clock_even_with_no_events():
    sim = Simulator()
    sim.run(until_us=12345)
    assert sim.now == 12345


def test_run_for_advances_relative():
    sim = Simulator()
    sim.run(until_us=100)
    sim.run_for(50)
    assert sim.now == 150


def test_run_max_events_budget():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(i + 1, seen.append, i)
    sim.run(max_events=3)
    assert seen == [0, 1, 2]


def test_budget_break_mid_instant_resumes_in_order():
    sim = Simulator()
    seen = []
    for tag in ("a", "b", "c"):
        sim.schedule(5, seen.append, tag)
    sim.run(max_events=2)
    assert seen == ["a", "b"]
    assert sim.peek() == 5
    sim.run()
    assert seen == ["a", "b", "c"]


def test_cancelled_instant_does_not_advance_clock():
    # Skipping dead entries must not move ``now`` to their deadline.
    sim = Simulator()
    sim.schedule(5, lambda: None).cancel()
    sim.run()
    assert sim.now == 0


def test_closure_free_steps_mirrored_into_metrics():
    sim = Simulator()
    sim.metrics.enable()

    def body():
        yield 1

    sim.spawn(body())
    sim.run()
    assert sim.closure_free_steps >= 1
    assert sim.metrics.aggregate("engine.closure_free_steps") == \
        sim.closure_free_steps


def test_peek_returns_next_live_event_time():
    sim = Simulator()
    timer = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    assert sim.peek() == 10
    timer.cancel()
    assert sim.peek() == 20


def test_peek_empty_heap_is_none():
    assert Simulator().peek() is None


def test_run_not_reentrant():
    sim = Simulator()

    def recurse():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1, recurse)
    sim.run()


def test_event_count_increments():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.event_count == 5


class TestTasks:
    def test_simple_task_runs_to_completion(self):
        sim = Simulator()
        log = []

        def body():
            log.append(sim.now)
            yield 1000
            log.append(sim.now)

        task = sim.spawn(body())
        sim.run()
        assert log == [0, 1000]
        assert task.finished
        assert task.exception is None

    def test_task_result_from_return_value(self):
        sim = Simulator()

        def body():
            yield 10
            return 42

        task = sim.spawn(body())
        sim.run()
        assert task.result == 42

    def test_task_yield_none_resumes_same_instant(self):
        sim = Simulator()
        times = []

        def body():
            yield 5
            times.append(sim.now)
            yield None
            times.append(sim.now)

        sim.spawn(body())
        sim.run()
        assert times == [5, 5]

    def test_task_waits_on_event_and_receives_value(self):
        sim = Simulator()
        ev = sim.event("go")
        got = []

        def waiter():
            value = yield ev
            got.append((sim.now, value))

        sim.spawn(waiter())
        sim.schedule(300, ev.trigger, "payload")
        sim.run()
        assert got == [(300, "payload")]

    def test_task_waiting_on_already_triggered_event(self):
        sim = Simulator()
        ev = sim.event()
        ev.trigger("early")
        got = []

        def waiter():
            got.append((yield ev))

        sim.spawn(waiter())
        sim.run()
        assert got == ["early"]

    def test_event_trigger_twice_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.trigger()
        with pytest.raises(SimulationError):
            ev.trigger()

    def test_task_waits_on_other_task(self):
        sim = Simulator()

        def child():
            yield 100
            return "done"

        def parent():
            result = yield sim.spawn(child())
            return result

        task = sim.spawn(parent())
        sim.run()
        assert task.result == "done"
        assert sim.now == 100

    def test_child_task_exception_propagates_to_waiter(self):
        sim = Simulator()
        sim.strict = False

        def child():
            yield 10
            raise ValueError("boom")

        def parent():
            try:
                yield sim.spawn(child())
            except ValueError as exc:
                return f"caught {exc}"

        task = sim.spawn(parent())
        sim.run()
        assert task.result == "caught boom"

    def test_unhandled_task_exception_raises_from_run(self):
        sim = Simulator()

        def body():
            yield 10
            raise RuntimeError("unhandled")

        sim.spawn(body())
        with pytest.raises(TaskFailed):
            sim.run()

    def test_non_strict_mode_collects_failures(self):
        sim = Simulator()
        sim.strict = False

        def body():
            yield 10
            raise RuntimeError("collected")

        sim.spawn(body())
        sim.run()
        assert len(sim.failures) == 1

    def test_spawn_requires_generator(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.spawn(lambda: None)

    def test_float_delay_rejected(self):
        sim = Simulator()

        def body():
            yield 1.5

        sim.spawn(body())
        with pytest.raises(TaskFailed):
            sim.run()

    def test_negative_delay_in_task_rejected(self):
        sim = Simulator()

        def body():
            yield -5

        sim.spawn(body())
        with pytest.raises((TaskFailed, SimulationError)):
            sim.run()


class TestInterrupts:
    def test_interrupt_wakes_sleeping_task(self):
        from repro.sim import Interrupted

        sim = Simulator()
        log = []

        def body():
            try:
                yield 1_000_000
            except Interrupted as intr:
                log.append((sim.now, intr.cause))

        task = sim.spawn(body())
        sim.schedule(500, task.interrupt, "preempted")
        sim.run()
        assert log == [(500, "preempted")]

    def test_uncaught_interrupt_cancels_task_quietly(self):
        sim = Simulator()

        def body():
            yield 1_000_000

        task = sim.spawn(body())
        sim.schedule(10, task.interrupt)
        sim.run()
        assert task.finished
        assert task.interrupted
        assert task.exception is None
        assert sim.failures == []

    def test_interrupt_finished_task_is_noop(self):
        sim = Simulator()

        def body():
            yield 10

        task = sim.spawn(body())
        sim.run()
        task.interrupt()
        sim.run()
        assert task.exception is None

    def test_stale_timer_does_not_resume_after_interrupt(self):
        from repro.sim import Interrupted

        sim = Simulator()
        resumes = []

        def body():
            try:
                yield 100
            except Interrupted:
                pass
            yield 500
            resumes.append(sim.now)

        task = sim.spawn(body())
        sim.schedule(50, task.interrupt)
        sim.run()
        # Interrupted at 50, then slept 500 more: resumes at 550, not 100.
        assert resumes == [550]

    def test_interrupt_cancels_abandoned_timer(self):
        from repro.sim import Interrupted

        sim = Simulator()

        def body():
            try:
                yield 10_000
            except Interrupted:
                pass

        task = sim.spawn(body())
        sim.schedule(50, task.interrupt)
        sim.run()
        # The abandoned 10 ms timer is cancelled when the throw lands,
        # so the run is quiescent at the interrupt instant instead of
        # dragging on to fire a stale no-op.
        assert task.finished
        assert sim.now == 50
        assert sim.alive_event_count == 0


class TestCombinators:
    def test_anyof_first_event_wins(self):
        from repro.sim import AnyOf

        sim = Simulator()
        a, b = sim.event("a"), sim.event("b")
        got = []

        def body():
            got.append((yield AnyOf([a, b])))

        sim.spawn(body())
        sim.schedule(10, b.trigger, "bee")
        sim.schedule(20, a.trigger, "aye")
        sim.run()
        assert got == [(1, "bee")]

    def test_anyof_with_timeout_member(self):
        from repro.sim import AnyOf

        sim = Simulator()
        ev = sim.event()
        got = []

        def body():
            got.append((yield AnyOf([ev, 250])))

        sim.spawn(body())
        sim.run()
        assert got == [(1, None)]
        assert sim.now == 250

    def test_anyof_event_beats_timeout(self):
        from repro.sim import AnyOf

        sim = Simulator()
        ev = sim.event()
        got = []

        def body():
            got.append((yield AnyOf([ev, 250])))

        sim.spawn(body())
        sim.schedule(100, ev.trigger, "fast")
        sim.run()
        assert got == [(0, "fast")]

    def test_anyof_losing_timer_is_cancelled_on_event_win(self):
        # Regression: the losing int-delay branch used to sit live in
        # the queue until its deadline, inflating alive_event_count and
        # dragging run() out to the stale timeout.
        from repro.sim import AnyOf

        sim = Simulator()
        ev = sim.event()
        got = []

        def body():
            got.append((yield AnyOf([ev, 10_000])))

        sim.spawn(body())
        sim.schedule(100, ev.trigger, "fast")
        sim.run()
        assert got == [(0, "fast")]
        assert sim.now == 100  # not 10_000: the loser never fires
        assert sim.alive_event_count == 0

    def test_anyof_losing_timer_is_cancelled_on_timer_win(self):
        from repro.sim import AnyOf

        sim = Simulator()
        got = []

        def body():
            got.append((yield AnyOf([5, 10_000])))

        sim.spawn(body())
        sim.run()
        assert got == [(0, None)]
        assert sim.now == 5
        assert sim.alive_event_count == 0

    def test_allof_waits_for_every_member(self):
        from repro.sim import AllOf

        sim = Simulator()
        a, b = sim.event(), sim.event()
        got = []

        def body():
            got.append((yield AllOf([a, b])))

        sim.spawn(body())
        sim.schedule(10, a.trigger, 1)
        sim.schedule(30, b.trigger, 2)
        sim.run()
        assert got == [[1, 2]]
        assert sim.now == 30

    def test_empty_combinator_rejected(self):
        from repro.sim import AllOf, AnyOf

        with pytest.raises(SimulationError):
            AnyOf([])
        with pytest.raises(SimulationError):
            AllOf([])


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        def trajectory(seed):
            sim = Simulator(seed=seed)
            log = []

            def body(name):
                for _ in range(20):
                    delay = sim.rand.randint("jitter", 1, 100)
                    yield delay
                    log.append((sim.now, name))

            sim.spawn(body("x"))
            sim.spawn(body("y"))
            sim.run()
            return log

        assert trajectory(7) == trajectory(7)
        assert trajectory(7) != trajectory(8)


def test_event_remove_callback():
    sim = Simulator()
    ev = sim.event()
    fired = []

    def cb(event):
        fired.append(event.value)

    ev.on_trigger(cb)
    ev.remove_callback(cb)
    ev.remove_callback(cb)  # absent: no-op
    ev.trigger("x")
    sim.run()
    assert fired == []


class TestRunForPeekInteraction:
    """Regressions for the run_for/peek/max_events contract: a run cut
    short by its event budget must report the true final now(), and a
    peek() issued from inside a callback must not detach the run loop
    from the live heap."""

    def test_max_events_does_not_teleport_clock_to_until(self):
        sim = Simulator()
        seen = []
        for t in (10, 20, 30):
            sim.schedule(t, seen.append, t)
        final = sim.run(until_us=1_000, max_events=1)
        # Only the t=10 event fired; events at 20 and 30 are still
        # pending, so the clock must not have jumped to 1000.
        assert seen == [10]
        assert final == sim.now == 10
        assert sim.run(until_us=1_000) == 1_000
        assert seen == [10, 20, 30]

    def test_until_still_advances_clock_when_quiescent(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        # Budget exhausted, but nothing else is pending before until_us:
        # advancing to until_us is the documented contract.
        assert sim.run(until_us=500, max_events=1) == 500
        sim.schedule(700, lambda: None)  # beyond the window
        assert sim.run(until_us=600, max_events=5) == 600

    def test_run_for_reports_true_final_now_after_budgeted_run(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule(100, tick)

        sim.schedule(100, tick)
        sim.run(until_us=10_000, max_events=3)
        assert sim.now == 300  # not 10_000: the heap was not exhausted
        sim.run_for(200)
        assert sim.now == 500

    def test_peek_compaction_inside_callback_keeps_run_live(self):
        sim = Simulator()
        # A mass of cancelled timers deep enough that the next peek()
        # triggers a one-pass compaction (which swaps out sim._heap).
        stale = [sim.schedule(50_000 + i, lambda: None) for i in range(200)]
        for timer in stale:
            timer.cancel()
        del stale
        seen = []

        def probe():
            seen.append(("probe", sim.now))
            assert sim.peek() == 200  # compacts: cancelled > half the heap
            sim.schedule(300, seen.append, ("late", 400))

        sim.schedule(100, probe)
        sim.schedule(200, seen.append, ("mid", 200))
        final = sim.run()
        # Both the pre-existing event and the one scheduled after the
        # in-callback compaction must fire.
        assert seen == [("probe", 100), ("mid", 200), ("late", 400)]
        assert final == 400
