"""Cancellation, same-instant ordering and run() contracts of the event core.

These cases once ran against a second, timer-wheel core; the module name
is kept so the test ids stay stable. Each now runs on the one heap core
and pins a behaviour every caller relies on.
"""

from repro.sim import Simulator
from repro.sim.engine import _COMPACT_MIN_CANCELLED

_FAR_US = 1 << 20


class TestQueueRouting:
    def test_same_bucket_fifo_order(self):
        sim = Simulator()
        seen = []
        for tag in ("a", "b", "c"):
            sim.schedule(7, seen.append, tag)
        sim.run()
        assert seen == ["a", "b", "c"]


class TestCancellation:
    def test_cancelled_wheel_entry_never_fires(self):
        sim = Simulator()
        seen = []
        doomed = sim.schedule(5, seen.append, "no")
        sim.schedule(9, seen.append, "yes")
        doomed.cancel()
        assert sim.alive_event_count == 1
        sim.run()
        assert seen == ["yes"]
        assert sim.alive_event_count == 0

    def test_overflow_mass_cancellation_still_compacts(self):
        sim = Simulator()
        n = 4 * _COMPACT_MIN_CANCELLED
        doomed = [sim.schedule(_FAR_US + i, lambda: None) for i in range(n)]
        survivor = []
        sim.schedule(10, survivor.append, "ran")
        for t in doomed:
            t.cancel()
        assert sim.alive_event_count == 1
        sim.run()
        assert survivor == ["ran"]
        assert sim.compactions >= 1
        assert sim.alive_event_count == 0

    def test_timer_pool_reuse(self):
        sim = Simulator()
        for _ in range(50):
            sim.schedule(1, lambda: None)
        sim.run()
        for _ in range(50):
            sim.schedule(0, lambda: None)
        sim.run()
        assert sim.timers_reused > 0


class TestRunContracts:
    def test_run_until_and_quiescent_clamp(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, seen.append, "a")
        sim.schedule(500, seen.append, "b")
        assert sim.run(until_us=100) == 100
        assert seen == ["a"]
        assert sim.run() == 500
        assert seen == ["a", "b"]

    def test_max_events_does_not_teleport_clock(self):
        sim = Simulator()
        for delay in (10, 20, 30):
            sim.schedule(delay, lambda: None)
        sim.run(until_us=1_000, max_events=2)
        assert sim.now == 20  # live event still pending at 30
