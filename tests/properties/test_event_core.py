"""The event core against a sorted-list reference model.

One randomized op program -- schedules (zero, near and far delays),
cancellations, partial runs, timer races whose winner cancels its rivals
at the same instant, callbacks that cancel an earlier handle later, and
reserved slots filled between runs, from callbacks before and after
their turn, or never -- is interpreted twice: once on
:class:`Simulator` and once on :class:`_SortedListModel`, a deliberately
naive queue kept here that holds every entry in one
``(time, seq)``-sorted list.  Fire order, the ``now`` trajectory,
``event_count``, ``alive_event_count``, ``peek()``, the ``_seq``
allocation stream and which fills found their slot pending must be
identical after every single op: the heap, its compaction, the timer
pool and the side heap of slots may only change wall-clock cost, never
the simulation.
"""

import bisect
import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

_DELAY = st.integers(min_value=0, max_value=60_000)

_OP = st.one_of(
    st.tuples(st.just("schedule"), _DELAY),
    st.tuples(st.just("zero"), st.just(0)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=255)),
    st.tuples(st.just("run_events"), st.integers(min_value=1, max_value=8)),
    st.tuples(st.just("run_until"), st.integers(min_value=0, max_value=50_000)),
    st.tuples(st.just("race"), st.integers(min_value=0, max_value=120)),
    st.tuples(st.just("cancel-later"), st.integers(min_value=0, max_value=300)),
    st.tuples(st.just("reserve"), st.just(0)),
    st.tuples(st.just("reserve-later"), st.integers(min_value=0, max_value=300)),
    st.tuples(st.just("fill"), st.integers(min_value=0, max_value=255)),
    st.tuples(st.just("fill-later"), st.integers(min_value=0, max_value=300)),
)

_PROGRAM = st.lists(_OP, min_size=1, max_size=40)


class _Handle:
    """A cancellable entry in the reference model's queue."""

    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _Slot(_Handle):
    """A reserved turn in the reference model's queue: never cancelled,
    retired without a call when it reaches the head."""

    __slots__ = ("pending",)

    def __init__(self):
        super().__init__()
        self.pending = True


class _SortedListModel:
    """The ``Simulator`` scheduling contract, the slow obvious way: one
    list of ``(time, seq, handle, fn, args)`` kept sorted, cancelled
    entries skipped at the head without moving the clock."""

    def __init__(self):
        self.now = 0
        self.event_count = 0
        self._seq = 0
        self._queue = []

    @property
    def alive_event_count(self):
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    def schedule(self, delay_us, fn, *args):
        self._seq += 1
        handle = _Handle()
        bisect.insort(self._queue,
                      (self.now + delay_us, self._seq, handle, fn, args),
                      key=lambda entry: entry[:2])
        return handle

    def reserve(self, fn):
        self._seq += 1
        slot = _Slot()
        bisect.insort(self._queue, (self.now, self._seq, slot, None, ()),
                      key=lambda entry: entry[:2])
        return slot

    def fill(self, slot, fn, *args):
        if not slot.pending:
            return None
        slot.pending = False
        for i, (time, seq, handle, _fn, _args) in enumerate(self._queue):
            if handle is slot:
                handle = _Handle()
                self._queue[i] = (time, seq, handle, fn, args)
                return handle
        raise AssertionError("a pending slot is not queued")

    def peek(self):
        for time, _seq, handle, _fn, _args in self._queue:
            if not handle.cancelled:
                return time
        return None

    def run(self, until_us=None, max_events=None):
        fired = 0
        while self._queue:
            time, _seq, handle, fn, args = self._queue[0]
            if handle.cancelled:
                self._queue.pop(0)
                continue
            if until_us is not None and time > until_us:
                break
            self._queue.pop(0)
            self.now = time
            self.event_count += 1
            if type(handle) is _Slot:
                handle.pending = False
            else:
                fn(*args)
            fired += 1
            if max_events is not None and fired == max_events:
                break
        if until_us is not None and self.now < until_us:
            nxt = self.peek()
            if nxt is None or nxt > until_us:
                self.now = until_us
        return self.now


def _execute(ops, sim):
    log = []
    handles = []
    tags = itertools.count()

    def fire(tag):
        log.append(("fire", sim.now, tag))

    def race_won(tag, index, rivals):
        # The first of the three to fire cancels the others -- the equal
        # twin at this very instant.
        log.append(("race", sim.now, tag, index))
        for i, rival in enumerate(rivals):
            if i != index:
                rival.cancel()

    slots = []

    def reserve():
        slots.append(sim.reserve(fire))

    def fill(index):
        # Filling a slot whose turn has come and gone finds nothing.
        tag = next(tags)
        handle = sim.fill(slots[index % len(slots)], fire, tag)
        log.append(("fill", sim.now, tag, handle is not None))
        if handle is not None:
            handles.append(handle)

    trail = []
    for op, arg in ops:
        if op == "schedule" or op == "zero":
            handles.append(sim.schedule(arg, fire, next(tags)))
        elif op == "cancel":
            if handles:
                handles[arg % len(handles)].cancel()
        elif op == "run_events":
            sim.run(max_events=arg)
        elif op == "run_until":
            sim.run(until_us=sim.now + arg)
        elif op == "race":
            tag = next(tags)
            rivals = []
            for index, delay in enumerate((arg + 37, arg, arg)):
                rivals.append(sim.schedule(delay, race_won, tag, index, rivals))
            handles.extend(rivals)
        elif op == "cancel-later":
            if handles:
                sim.schedule(arg, handles[arg % len(handles)].cancel)
        elif op == "reserve":
            reserve()
        elif op == "reserve-later":
            sim.schedule(arg, reserve)
        elif op == "fill":
            if slots:
                fill(arg)
        elif op == "fill-later":
            if slots:
                sim.schedule(arg % 3, fill, arg)
        trail.append(
            (sim.now, sim.event_count, sim.alive_event_count, sim._seq, sim.peek())
        )
    sim.run()
    trail.append((sim.now, sim.event_count, sim.alive_event_count, sim._seq))
    # A run that drains the queue retires every slot: none can be filled.
    trail.append([sim.fill(slot, fire, -1) for slot in slots])
    return log, trail


@given(ops=_PROGRAM)
@example(ops=[  # a slot retired inside a run_events budget, then filled
    ("zero", 0), ("reserve", 0), ("zero", 0), ("run_events", 2),
    ("fill", 0), ("run_events", 1)])
@example(ops=[  # filled between runs, before its turn
    ("reserve", 0), ("schedule", 10), ("fill", 0), ("run_events", 1)])
@example(ops=[  # a callback fills the second slot before its turn
    ("reserve", 0), ("fill-later", 3), ("reserve", 0), ("run_until", 0)])
@example(ops=[  # one budget ends before the slot, the next fills it
    ("zero", 0), ("reserve", 0), ("run_events", 1), ("fill", 0),
    ("run_events", 1), ("fill", 0)])
@example(ops=[  # reserved by a callback, retired before a later zero
    ("reserve-later", 0), ("zero", 0), ("run_events", 1), ("zero", 0),
    ("run_events", 2), ("fill", 0)])
@settings(max_examples=80, deadline=None)
def test_simulator_matches_the_sorted_list_model(ops):
    assert _execute(ops, Simulator(seed=11)) == _execute(ops, _SortedListModel())


@given(
    delays=st.lists(_DELAY, min_size=150, max_size=300),
    keep_every=st.integers(min_value=3, max_value=7),
)
@settings(max_examples=40, deadline=None)
def test_fire_order_identical_under_cancellation_pressure(delays, keep_every):
    """Cancelling all but every ``keep_every``-th of 150+ timers leaves
    enough dead entries to trip heap compaction; the fire order, clock
    and counts must still match the model."""
    def run(sim):
        fired = []
        handles = [
            sim.schedule(d, fired.append, i) for i, d in enumerate(delays)
        ]
        for i, h in enumerate(handles):
            if i % keep_every:
                h.cancel()
        sim.run()
        return fired, sim.now, sim.event_count, sim.alive_event_count

    sim = Simulator()
    assert run(sim) == run(_SortedListModel())
    assert sim.compactions >= 1
