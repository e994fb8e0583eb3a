"""The discrete-event simulator core: clock and event queue.

Events live in one binary heap keyed on ``(time, seq, timer)``, so equal
times fire in schedule order.

Hot-path notes.  The simulator recycles :class:`Timer` objects through a
small free pool: when a fired (or cancelled-and-popped) timer has no
surviving external references -- checked with ``sys.getrefcount``, so a
handle someone still holds is never reused -- it is reset and handed to
the next ``schedule`` call instead of allocating afresh.  Cancelled
timers that would otherwise sit in the heap until their deadline are
compacted away in one pass whenever they exceed half the heap (heap
rebuilds preserve the (time, seq) order exactly, so determinism is
unaffected).  ``alive_event_count`` reports only live entries, which is
what budget checks want.

Reserved slots.  An event that would provably do nothing when it fires
-- an idle CPU's dispatch, see :mod:`repro.kernel.scheduler` -- need not
be queued.  :meth:`Simulator.reserve` takes the heap key that
``schedule(0, fn)`` would take (perturber included) and files the slot
``(time, key, fn)`` on a small side heap instead of a timer on the main
one.  The run loop retires a slot when its key comes up, as one event:
the clock, ``_key``, the event count, the invariant checker, the
profiler (charged 0 s to ``fn``) and the ``max_events`` budget see it as
they saw the no-op event, but ``fn`` is not called.  If work appears
before the slot's turn, :meth:`Simulator.fill` turns it into a real
event at the same key, so the trajectory is the one the queued event
gave.  A pending slot is always at the current instant: it retires
before the clock can move past it.

The ``(time, seq)`` tie-breaking contract is also where the differential
pass of ``repro chaos`` (:func:`repro.faults.campaign.differential_pass`)
plugs in: a *perturber*
passed to the constructor (``Simulator(seed, perturber=...)``) may
replace the integer seq key with a fractional one, permuting the FIFO
order of same-instant events -- the orderings the paper's protocol must
tolerate -- while leaving cross-instant order untouched.  No perturber
(the default) costs one attribute load + branch per schedule and leaves
the trajectory byte-identical.
"""

from __future__ import annotations

import heapq
from sys import getrefcount
from typing import Any, Callable, List, Optional, Tuple

from time import perf_counter

from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.sim.random import RandomStreams
from repro.sim.trace import Tracer

#: Upper bound on pooled Timer objects kept for reuse.
_TIMER_POOL_MAX = 256
#: Compact the heap once this many cancelled timers accumulate *and*
#: they make up more than half of it.
_COMPACT_MIN_CANCELLED = 64
#: ``Simulator._key`` once the clock stands past the last fired event.
_AFTER_ALL = float("inf")


class Timer:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: int, fn: Callable, args: Tuple[Any, ...], sim=None):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing; safe to call repeatedly."""
        if not self.cancelled:
            self.cancelled = True
            self.fn = None
            self.args = ()
            # _sim is set while the timer sits in a queue and detached
            # once it leaves (fired or swept), so cancelling a stale
            # handle cannot skew the live-entry accounting.
            sim = self._sim
            if sim is not None:
                sim._cancelled_alive += 1


#: A reserved turn in the event order: ``(time, key, fn)``, see
#: :meth:`Simulator.reserve`.
Slot = Tuple[int, Any, Callable]


class Simulator:
    """A deterministic discrete-event simulator over integer microseconds.

    Typical usage::

        sim = Simulator(seed=1)

        def hello():
            print(sim.now)       # 1000

        sim.schedule(1_000, hello)   # fire 1 ms from now
        sim.run()

    All model randomness must come from :attr:`rand` so that equal seeds
    give equal runs.
    """

    def __init__(self, seed: int = 0, perturber=None):
        self._now = 0
        self._heap: List[Tuple[int, int, Timer]] = []
        #: Pending reserved slots, a heap ordered like ``_heap``.
        self._slots: List[Slot] = []
        self._seq = 0
        self._running = False
        self.rand = RandomStreams(seed)
        self.trace = Tracer(self)
        #: The unified metrics registry (off by default; see repro.obs).
        self.metrics = MetricsRegistry(self)
        #: Installed by repro.obs.profiler.SelfProfiler; None = no
        #: per-event wall-clock accounting (the zero-cost default).
        self._profiler = None
        #: Installed by repro.faults.invariants.InvariantChecker; None
        #: (the default) costs one attribute load + branch per event,
        #: exactly like the tracer/metrics guards.  When set, its
        #: ``after_event(sim)`` runs after every processed event and its
        #: ``note_*`` hooks are consulted by the transport, kernel and
        #: migration manager.
        self.invariants = None
        #: When True (default), a program crash -- an unhandled exception
        #: in a process body -- raises ``KernelError`` out of :meth:`run`
        #: (``Kernel.on_process_fault``).  Fault-injection tests set this
        #: False and inspect ``kernel.faulted`` instead.
        self.strict = True
        #: A same-instant tie perturber (see
        #: :class:`repro.faults.perturb.TiePerturber`): every ``schedule``
        #: routes its heap key through ``perturber.assign``.  It is fixed
        #: at construction, so it sees the cluster builder's first events
        #: too.  None (the default) costs one attribute load + branch per
        #: schedule -- the same zero-cost discipline as the
        #: profiler/invariant hooks, and the A/B test in
        #: tests/faults/test_perturber.py pins the trajectory
        #: byte-identical.
        self._perturber = perturber
        #: Next free logical-host id in this simulated world
        #: (``Kernel.allocate_lhid``); lhids feed pid-derived random-stream
        #: names, so a fresh world always starts from the same id.
        self.next_lhid = 0x0010
        self._event_count = 0
        #: Heap key of the event fired last; +inf once :meth:`run` has
        #: advanced the clock past it (every event of the instant has
        #: run).  The segment reads it to tell whether a frame due at
        #: this very instant has arrived (``Ethernet._revoke``).
        self._key = 0
        #: Cancelled timers still sitting in the heap awaiting removal.
        self._cancelled_alive = 0
        self._timer_pool: List[Timer] = []
        #: Heap compactions performed (perf counter).
        self.compactions = 0
        #: Timer objects served from the free pool instead of allocated.
        self.timers_reused = 0

    # ------------------------------------------------------------ properties

    @property
    def now(self) -> int:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def event_count(self) -> int:
        """Number of events processed so far (for budget checks)."""
        return self._event_count

    @property
    def alive_event_count(self) -> int:
        """Scheduled events that will actually fire: heap entries minus
        cancelled timers awaiting removal, plus pending reserved slots.
        Budget and quiescence checks should use this, not ``len`` of the
        raw heap."""
        return len(self._heap) - self._cancelled_alive + len(self._slots)

    # ------------------------------------------------------------ scheduling

    def schedule(self, delay_us: int, fn: Callable, *args: Any) -> Timer:
        """Run ``fn(*args)`` after ``delay_us`` microseconds; returns a
        cancellable :class:`Timer`."""
        if delay_us < 0:
            raise SimulationError(f"cannot schedule {delay_us} us in the past")
        if type(delay_us) is not int:
            # Round half up instead of silently truncating: a fractional
            # pace (e.g. a scaled bulk_copy_us) must not quietly run the
            # clock fast.  ``int()`` would floor 0.999 to 0.
            delay_us = int(delay_us + 0.5)
        time = self._now + delay_us
        pool = self._timer_pool
        if pool:
            timer = pool.pop()
            timer.time = time
            timer.fn = fn
            timer.args = args
            timer.cancelled = False
            timer._sim = self
            self.timers_reused += 1
        else:
            timer = Timer(time, fn, args, self)
        self._seq += 1
        key = self._seq
        perturber = self._perturber
        if perturber is not None:
            # Schedule-perturbation hook (repro.faults.perturb): the
            # perturber may hand back a fractional key that files this
            # entry *before* an earlier same-instant one, permuting FIFO
            # tie-breaking without touching anything cross-instant.
            key = perturber.assign(self, time, key)
        heapq.heappush(self._heap, (time, key, timer))
        return timer

    def schedule_at(self, time_us: int, fn: Callable, *args: Any) -> Timer:
        """Run ``fn(*args)`` at absolute simulated time ``time_us``."""
        return self.schedule(time_us - self._now, fn, *args)

    def reserve(self, fn: Callable) -> Slot:
        """Take the turn ``schedule(0, fn)`` would take, for an event
        that would do nothing, without queueing it.  The returned slot
        is retired as one event when its turn comes (``fn`` is not
        called), unless :meth:`fill` makes it real first."""
        time = self._now
        self._seq += 1
        key = self._seq
        perturber = self._perturber
        if perturber is not None:
            key = perturber.assign(self, time, key)
        slot = (time, key, fn)
        heapq.heappush(self._slots, slot)
        return slot

    def reserved(self, slot: Slot) -> bool:
        """Whether ``slot``'s turn is still to come (a pending slot
        always stands at the current instant)."""
        return slot[0] == self._now and slot in self._slots

    def fill(self, slot: Slot, fn: Callable, *args: Any) -> Optional[Timer]:
        """Turn ``slot`` into the event ``fn(*args)`` at its own heap key;
        returns its :class:`Timer`, or None if the slot's turn has
        passed (it was retired as a no-op)."""
        slots = self._slots
        if slot[0] != self._now or slot not in slots:
            return None
        last = slots.pop()
        if last is not slot:
            slots[slots.index(slot)] = last
            heapq.heapify(slots)
        time, key, _ = slot
        timer = Timer(time, fn, args, self)
        heapq.heappush(self._heap, (time, key, timer))
        return timer

    # ------------------------------------------------------------- recycling

    def _recycle(self, timer: Timer) -> None:
        """Return ``timer`` to the free pool if nothing else can still
        reach it.  Expected references at the call site: the caller's
        local plus ``getrefcount``'s own argument -- anything more means
        a user handle survives and the object must not be reused (a
        stale ``cancel()`` through it would kill an unrelated event)."""
        if len(self._timer_pool) < _TIMER_POOL_MAX and getrefcount(timer) <= 3:
            timer.fn = None
            timer.args = ()
            timer.cancelled = False
            self._timer_pool.append(timer)

    def _compact(self) -> None:
        """Drop every cancelled entry from the heap in one pass (instead
        of popping them one at a time through the run loop).  Rebuilding
        keeps every live (time, seq, timer) entry, so pop order -- and
        with it determinism -- is unchanged."""
        live = []
        pool = self._timer_pool
        dropped = 0
        for entry in self._heap:
            timer = entry[2]
            if timer.cancelled:
                dropped += 1
                timer._sim = None
                # Refs: the entry tuple + our local + getrefcount's arg.
                if len(pool) < _TIMER_POOL_MAX and getrefcount(timer) <= 3:
                    timer.cancelled = False
                    pool.append(timer)
            else:
                live.append(entry)
        heapq.heapify(live)
        self._heap = live
        self._cancelled_alive -= dropped
        self.compactions += 1

    def _drop_dead_head(self) -> None:
        """Remove the cancelled entry at the heap head: alone when the
        dead are few, via one :meth:`_compact` pass over the whole heap
        once they exceed half of it.  (run() and peek() used to carry
        diverging copies of this sweep.)"""
        if (
            self._cancelled_alive >= _COMPACT_MIN_CANCELLED
            and self._cancelled_alive * 2 > len(self._heap)
        ):
            self._compact()
        else:
            _, _, timer = heapq.heappop(self._heap)
            self._cancelled_alive -= 1
            timer._sim = None
            self._recycle(timer)

    # ----------------------------------------------------------------- run

    def run(
        self,
        until_us: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Process events until the heap drains, ``until_us`` is reached,
        or ``max_events`` have fired.  Returns the final simulated time.

        With ``until_us`` given, the clock is advanced to exactly
        ``until_us`` even if the last event fired earlier -- but only
        when the simulation is actually quiescent up to ``until_us``.
        If ``max_events`` cut the run short with live events still
        pending at or before ``until_us``, the clock stays at the last
        fired event so callers see the true final ``now()`` instead of
        teleporting past unprocessed work.
        """
        if self._running:
            raise SimulationError("run() re-entered; the simulator is not reentrant")
        self._running = True
        try:
            budget = max_events if max_events is not None else -1
            heap = self._heap
            slots = self._slots
            pool = self._timer_pool
            heappop = heapq.heappop
            while True:
                if slots:
                    slot = slots[0]
                    if not heap or slot < heap[0]:
                        # A reserved slot's turn: one event, no call.
                        time = slot[0]
                        if until_us is not None and time > until_us:
                            break
                        heappop(slots)
                        self._now = time
                        self._key = slot[1]
                        self._event_count += 1
                        profiler = self._profiler
                        if profiler is not None:
                            profiler._account(slot[2], 0.0)
                        invariants = self.invariants
                        if invariants is not None:
                            invariants.after_event(self)
                            heap = self._heap
                        if budget > 0:
                            budget -= 1
                            if budget == 0:
                                break
                        continue
                elif not heap:
                    break
                time, key, timer = heap[0]
                if timer.cancelled:
                    # A heap with mostly-dead entries is swept in one
                    # compaction pass rather than popped one-by-one.
                    self._drop_dead_head()
                    heap = self._heap
                    continue
                if until_us is not None and time > until_us:
                    break
                heappop(heap)
                if time < self._now:
                    raise SimulationError("event heap produced time travel")
                self._now = time
                self._key = key
                self._event_count += 1
                # Detach before firing: the callback may cancel its own
                # (now already-dequeued) handle.
                timer._sim = None
                fn, args = timer.fn, timer.args
                profiler = self._profiler
                if profiler is None:
                    fn(*args)
                else:
                    started = perf_counter()
                    fn(*args)
                    profiler._account(fn, perf_counter() - started)
                invariants = self.invariants
                if invariants is not None:
                    invariants.after_event(self)
                # A callback may have triggered a compaction through
                # peek(), which rebuilds self._heap into a new list; a
                # stale local here would keep draining the old one while
                # new schedules land in the new one.
                heap = self._heap
                # Recycle the timer unless a handle survives (the test
                # of _recycle; here the only references are our local
                # and getrefcount's argument).
                if len(pool) < _TIMER_POOL_MAX and getrefcount(timer) <= 2:
                    timer.fn = None
                    timer.args = ()
                    timer.cancelled = False
                    pool.append(timer)
                if budget > 0:
                    budget -= 1
                    if budget == 0:
                        break
            if until_us is not None and self._now < until_us:
                nxt = self.peek()
                if nxt is None or nxt > until_us:
                    self._now = until_us
                    self._key = _AFTER_ALL
            return self._now
        finally:
            self._running = False

    def run_for(self, duration_us: int) -> int:
        """Advance the clock ``duration_us`` past the current time."""
        return self.run(until_us=self._now + duration_us)

    def peek(self) -> Optional[int]:
        """Time of the next live event or pending slot, or None if there
        is none."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            self._drop_dead_head()
            heap = self._heap
        if self._slots:
            return self._now  # a pending slot stands at the current instant
        return heap[0][0] if heap else None
