"""Unit tests for the discrete-event simulator core."""

import pytest

from repro.errors import KernelError, SimulationError
from repro.kernel import Compute
from repro.sim import Simulator


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
    """Stepping contracts: a callback chain rescheduling itself through
    the engine, and -- for the V process, which ``kernel/scheduler.py``
    steps -- the generator check and the ``strict`` crash policy."""

    def test_simple_task_runs_to_completion(self):
        sim = Simulator()
        log = []

        def step(left):
            log.append(sim.now)
            if left:
                sim.schedule(1000, step, left - 1)

        sim.schedule(0, step, 1)
        assert sim.run() == 1000
        assert log == [0, 1000]
        assert sim.alive_event_count == 0

    def test_task_yield_none_resumes_same_instant(self):
        # A zero-delay reschedule yields the floor: same instant, but
        # behind everything already queued for it.
        sim = Simulator()
        log = []

        def step(tag):
            log.append((sim.now, tag))
            if tag == "a":
                sim.schedule(0, step, "a-again")

        sim.schedule(5, step, "a")
        sim.schedule(5, step, "b")
        sim.run()
        assert log == [(5, "a"), (5, "b"), (5, "a-again")]

    def test_unhandled_task_exception_raises_from_run(self):
        sim = Simulator()
        seen = []

        def boom():
            raise RuntimeError("unhandled")

        sim.schedule(10, boom)
        sim.schedule(20, seen.append, "later")
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.now == 10
        # The failed run released the simulator: it resumes where it
        # stopped.
        sim.run()
        assert seen == ["later"]

    def test_non_strict_mode_collects_failures(self):
        from tests.helpers import BareCluster

        def body():
            yield Compute(10)
            raise RuntimeError("collected")

        strict = BareCluster(n=1)
        strict.spawn_program(strict.stations[0], body())
        with pytest.raises(KernelError):
            strict.run()

        lax = BareCluster(n=1)
        lax.sim.strict = False
        _, pcb = lax.spawn_program(lax.stations[0], body())
        lax.run()
        assert lax.stations[0].kernel.faulted == [pcb]
        assert pcb.exit_code == -1

    def test_spawn_requires_generator(self):
        from tests.helpers import BareCluster

        cluster = BareCluster(n=1)
        with pytest.raises(KernelError, match="generator"):
            cluster.spawn_program(cluster.stations[0], lambda: None)

    def test_negative_delay_in_task_rejected(self):
        sim = Simulator()
        sim.schedule(1, lambda: sim.schedule(-5, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()


class TestInterrupts:
    """Abandoning a pending wait is cancelling its timer."""

    def test_interrupt_finished_task_is_noop(self):
        sim = Simulator()
        seen = []
        timer = sim.schedule(10, seen.append, "fired")
        sim.run()
        timer.cancel()
        sim.run()
        assert seen == ["fired"]
        assert sim.alive_event_count == 0

    def test_stale_timer_does_not_resume_after_interrupt(self):
        sim = Simulator()
        resumes = []
        pending = sim.schedule(100, resumes.append, "stale")

        def interrupt():
            pending.cancel()
            sim.schedule(500, lambda: resumes.append(sim.now))

        sim.schedule(50, interrupt)
        sim.run()
        # Cancelled at 50, then slept 500 more: resumes at 550, not 100.
        assert resumes == [550]

    def test_interrupt_cancels_abandoned_timer(self):
        sim = Simulator()
        pending = sim.schedule(10_000, lambda: None)
        sim.schedule(50, pending.cancel)
        sim.run()
        # The run is quiescent at the cancel instant instead of
        # dragging on to the abandoned deadline.
        assert sim.now == 50
        assert sim.alive_event_count == 0


class TestCombinators:
    """First-to-fire races: the winning callback cancels its rivals
    (the tie storm's and every retransmit timeout's pattern)."""

    @staticmethod
    def _race(sim, entries):
        got = []
        rivals = []

        def won(index, value):
            got.append((index, value))
            for i, rival in enumerate(rivals):
                if i != index:
                    rival.cancel()

        for index, (delay, value) in enumerate(entries):
            rivals.append(sim.schedule(delay, won, index, value))
        sim.run()
        return got

    def test_anyof_first_event_wins(self):
        sim = Simulator()
        assert self._race(sim, [(20, "aye"), (10, "bee")]) == [(1, "bee")]
        assert sim.now == 10

    def test_anyof_with_timeout_member(self):
        sim = Simulator()
        assert self._race(sim, [(250, None)]) == [(0, None)]
        assert sim.now == 250

    def test_anyof_event_beats_timeout(self):
        sim = Simulator()
        assert self._race(sim, [(100, "fast"), (250, None)]) == [(0, "fast")]

    def test_anyof_losing_timer_is_cancelled_on_event_win(self):
        sim = Simulator()
        assert self._race(sim, [(100, "fast"), (10_000, None)]) == [(0, "fast")]
        assert sim.now == 100  # not 10_000: the loser never fires
        assert sim.alive_event_count == 0

    def test_anyof_losing_timer_is_cancelled_on_timer_win(self):
        sim = Simulator()
        # Equal delays: the loser is cancelled at the very instant it
        # was due, after being queued behind the winner.
        got = self._race(sim, [(5, None), (5, None), (10_000, None)])
        assert got == [(0, None)]
        assert sim.now == 5
        assert sim.alive_event_count == 0


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        def trajectory(seed):
            sim = Simulator(seed=seed)
            log = []

            def hop(name, left):
                log.append((sim.now, name))
                if left:
                    delay = sim.rand.randint("jitter", 1, 100)
                    sim.schedule(delay, hop, name, left - 1)

            for name in ("x", "y"):
                sim.schedule(sim.rand.randint("jitter", 1, 100), hop, name, 19)
            sim.run()
            return log

        assert len(trajectory(7)) == 40
        assert trajectory(7) == trajectory(7)
        assert trajectory(7) != trajectory(8)


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
