"""Unit tests for timer pooling, heap compaction and the zero-cost tracer."""

from repro.sim import Simulator
from repro.sim.engine import _COMPACT_MIN_CANCELLED


class TestTimerPool:
    def test_fired_timers_are_reused(self):
        sim = Simulator()
        for _ in range(50):
            sim.schedule(1, lambda: None)
        sim.run()
        for _ in range(50):
            sim.schedule(1, lambda: None)
        sim.run()
        assert sim.timers_reused > 0

    def test_retained_handle_is_never_reused(self):
        sim = Simulator()
        held = sim.schedule(1, lambda: None)
        sim.run()
        # The handle is still alive out here, so it must not be in the
        # pool: a new schedule gets a different object.
        fresh = sim.schedule(1, lambda: None)
        assert fresh is not held
        sim.run()

    def test_stale_cancel_after_firing_is_harmless(self):
        sim = Simulator()
        seen = []
        held = sim.schedule(1, seen.append, "a")
        sim.run()
        held.cancel()  # late cancel of an already-fired timer
        sim.schedule(1, seen.append, "b")
        sim.schedule(2, seen.append, "c")
        sim.run()
        assert seen == ["a", "b", "c"]
        assert sim.alive_event_count == 0

    def test_cancel_still_prevents_firing_with_pool_active(self):
        sim = Simulator()
        seen = []
        for _ in range(20):
            sim.schedule(1, lambda: None)
        sim.run()  # seeds the pool
        timer = sim.schedule(5, seen.append, "no")
        timer.cancel()
        timer.cancel()  # idempotent
        sim.run()
        assert seen == []


class TestAliveEventCount:
    def test_counts_only_live_timers(self):
        sim = Simulator()
        timers = [sim.schedule(10 + i, lambda: None) for i in range(10)]
        assert sim.alive_event_count == 10
        for t in timers[:4]:
            t.cancel()
        assert sim.alive_event_count == 6
        sim.run()
        assert sim.alive_event_count == 0

    def test_peek_drops_dead_prefix_from_accounting(self):
        sim = Simulator()
        early = sim.schedule(1, lambda: None)
        sim.schedule(50, lambda: None)
        early.cancel()
        assert sim.peek() == 50
        assert sim.alive_event_count == 1


class TestCompaction:
    def test_mass_cancellation_compacts_instead_of_popping(self):
        sim = Simulator()
        n = 4 * _COMPACT_MIN_CANCELLED
        doomed = [sim.schedule(1_000 + i, lambda: None) for i in range(n)]
        survivor = []
        sim.schedule(10_000, survivor.append, "ran")
        for t in doomed:
            t.cancel()
        assert sim.alive_event_count == 1
        sim.run()
        assert survivor == ["ran"]
        assert sim.compactions >= 1
        assert sim.alive_event_count == 0

    def test_compaction_preserves_event_order(self):
        sim = Simulator()
        seen = []
        cancelled = [sim.schedule(100, lambda: None)
                     for _ in range(4 * _COMPACT_MIN_CANCELLED)]
        # Same-time events must still fire in scheduling (FIFO) order
        # after the heap is rebuilt.
        for tag in ("a", "b", "c"):
            sim.schedule(500, seen.append, tag)
        for tag in ("x", "y"):
            sim.schedule(200, seen.append, tag)
        for t in cancelled:
            t.cancel()
        sim.run()
        assert seen == ["x", "y", "a", "b", "c"]
        assert sim.compactions >= 1

    def test_determinism_with_and_without_compaction_pressure(self):
        def trajectory(cancel_storm):
            sim = Simulator(seed=5)
            log = []

            def hop(name, left):
                log.append((sim.now, name))
                if left:
                    sim.schedule(sim.rand.randint("jitter", 1, 50),
                                 hop, name, left - 1)

            for name in ("x", "y"):
                sim.schedule(sim.rand.randint("jitter", 1, 50), hop, name, 9)
            if cancel_storm:
                storm = [sim.schedule(10_000 + i, lambda: None)
                         for i in range(4 * _COMPACT_MIN_CANCELLED)]
                for t in storm:
                    t.cancel()
            sim.run()
            return log

        assert trajectory(True) == trajectory(False)


class TestTracerFastPath:
    def test_active_flag_follows_enable_disable(self):
        sim = Simulator()
        assert sim.trace.active is False
        sim.trace.enable("ipc")
        assert sim.trace.active is True
        sim.trace.disable("ipc")
        assert sim.trace.active is False

    def test_ring_buffer_bounds_memory(self):
        sim = Simulator()
        sim.trace.enable("*")
        sim.trace.use_ring_buffer(5)
        for i in range(20):
            sim.trace.record("cat", "msg", i=i)
        assert len(sim.trace.records) == 5
        assert [r.get("i") for r in sim.trace.records] == [15, 16, 17, 18, 19]
        assert len(sim.trace.filter(category="cat")) == 5

    def test_ring_buffer_round_trip_to_unbounded(self):
        sim = Simulator()
        sim.trace.enable("*")
        sim.trace.record("a", "one")
        sim.trace.use_ring_buffer(10)
        sim.trace.record("a", "two")
        sim.trace.use_unbounded()
        sim.trace.record("a", "three")
        assert [r.message for r in sim.trace.records] == ["one", "two", "three"]

    def test_traced_runs_are_bit_identical_across_seeds(self):
        def traced(seed):
            sim = Simulator(seed=seed)
            sim.trace.enable("*")

            def hop(name, left):
                sim.trace.record("task", "step", name=name, at=sim.now)
                if left:
                    sim.schedule(sim.rand.randint("d", 1, 30),
                                 hop, name, left - 1)

            for name in ("p", "q"):
                sim.schedule(sim.rand.randint("d", 1, 30), hop, name, 14)
            sim.run()
            return repr(sim.trace.records)

        assert traced(9) == traced(9)
        assert traced(9) != traced(10)
