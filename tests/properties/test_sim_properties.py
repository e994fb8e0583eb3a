"""Property-based tests for the discrete-event engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


@given(delays=st.lists(st.integers(min_value=0, max_value=10**7), min_size=1,
                       max_size=50))
def test_callbacks_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(delays=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1,
                       max_size=30))
def test_equal_times_fire_fifo(delays):
    sim = Simulator()
    order = []
    t = max(delays)
    for i, _ in enumerate(delays):
        sim.schedule(t, order.append, i)
    sim.run()
    assert order == list(range(len(delays)))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n_tasks=st.integers(min_value=1, max_value=5))
@settings(max_examples=25)
def test_same_seed_identical_trajectory(seed, n_tasks):
    def run():
        sim = Simulator(seed=seed)
        log = []

        def hop(name, left):
            log.append((sim.now, name))
            if left:
                sim.schedule(sim.rand.randint(f"d{name}", 1, 1000),
                             hop, name, left - 1)

        for i in range(n_tasks):
            sim.schedule(sim.rand.randint(f"d{i}", 1, 1000), hop, i, 9)
        sim.run()
        return log

    assert run() == run()


@given(until=st.integers(min_value=0, max_value=10**6),
       delays=st.lists(st.integers(min_value=0, max_value=10**6), max_size=20))
def test_run_until_never_processes_later_events(until, delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, fired.append, d)
    sim.run(until_us=until)
    assert all(d <= until for d in fired)
    assert sim.now == until
    sim.run()
    assert sorted(fired) == sorted(delays)


@given(cancel_mask=st.lists(st.booleans(), min_size=1, max_size=30))
def test_cancelled_timers_never_fire(cancel_mask):
    sim = Simulator()
    fired = []
    timers = []
    for i, cancel in enumerate(cancel_mask):
        timers.append(sim.schedule(i + 1, fired.append, i))
    for timer, cancel in zip(timers, cancel_mask):
        if cancel:
            timer.cancel()
    sim.run()
    expected = [i for i, cancel in enumerate(cancel_mask) if not cancel]
    assert fired == expected


@given(st.data())
@settings(max_examples=30)
def test_task_interleaving_is_deterministic_under_spawn_order(data):
    delays_a = data.draw(st.lists(st.integers(1, 100), min_size=1, max_size=10))
    delays_b = data.draw(st.lists(st.integers(1, 100), min_size=1, max_size=10))

    def run():
        sim = Simulator()
        log = []

        def hop(tag, delays, i):
            log.append((sim.now, tag))
            if i < len(delays):
                sim.schedule(delays[i], hop, tag, delays, i + 1)

        sim.schedule(delays_a[0], hop, "a", delays_a, 1)
        sim.schedule(delays_b[0], hop, "b", delays_b, 1)
        sim.run()
        return log

    assert run() == run()
