"""An idle CPU's dispatch only reserves its turn.

When nothing runs and every ready queue is empty, the dispatch the
scheduler would queue finds nothing, so ``Scheduler._schedule_dispatch``
reserves its turn (``Simulator.reserve``) instead of queueing it.  A
wake-up before the turn fills the slot with the real dispatch at the
same heap key; a wake-up after it schedules a fresh dispatch, as the
queued no-op would have left things.

One constructed instant is replayed twice -- with slots and with every
dispatch a queued event, the scheduler before slots -- plainly, under
the tie perturber and with the invariant checker installed.  The
run loop reports every event to a stand-in profiler, a retired slot
included, so the two replays must show the same events at the same
``(time, key)``.
"""

import pytest

from repro.faults import InvariantChecker, TiePerturber
from repro.kernel import Compute
from repro.kernel.scheduler import Scheduler

from tests.helpers import BareCluster

VARIANTS = ["plain", "perturbed", "checked"]

#: When the constructed instant happens: the hog is mid-compute.
AT_US = 11_000


class _EventLog:
    """A stand-in self-profiler: the run loop accounts every processed
    event to it, a retired slot too (charged to the slot's ``fn``)."""

    def __init__(self, sim):
        self.sim = sim
        self.events = []
        sim._profiler = self

    def _account(self, fn, seconds):
        self.events.append((self.sim.now, self.sim._key, fn.__name__))


def _queued_dispatch(self):
    """``_schedule_dispatch`` before slots: every dispatch is queued."""
    if self._dispatch_pending:
        return
    self._dispatch_pending = True
    self._sched(0, self._dispatch)


def _instant(variant, wake_before_turn):
    """A hog computes on a one-station cluster; at ``AT_US`` one event
    suspends it, leaving the CPU idle, and schedules an observer for the
    same instant.  The resume that wakes the hog again is scheduled for
    that instant either before the suspension (so it runs before the
    idle dispatch's turn) or by it (after the turn)."""
    perturber = TiePerturber(seed=3, rate=0.5) if variant == "perturbed" else None
    cluster = BareCluster(n=1, seed=7, perturber=perturber)
    checker = None
    if variant == "checked":
        checker = InvariantChecker(cluster, strict=True).install(cluster.sim)
    sim = cluster.sim
    station = cluster.stations[0]
    kernel = station.kernel
    scheduler = kernel.scheduler

    def hog():
        yield Compute(50_000)

    _, pcb = cluster.spawn_program(station, hog(), name="hog")
    cluster.run(until_us=AT_US - 1_000)
    assert scheduler.running is pcb

    slots = []
    reserve = sim.reserve

    def reserving(fn):
        slots.append(reserve(fn))
        return slots[-1]

    sim.reserve = reserving
    dispatches = []
    sched = scheduler._sched

    def scheduling(delay_us, fn, *args):
        if fn == scheduler._dispatch:
            dispatches.append(sim.now)
        return sched(delay_us, fn, *args)

    scheduler._sched = scheduling
    log = _EventLog(sim)
    seen = []

    def observe():
        seen.append(scheduler.running is pcb)

    def suspend():
        kernel.suspend_process(pcb)
        if not wake_before_turn:
            sim.schedule(0, kernel.resume_process, pcb)
        sim.schedule(0, observe)

    sim.schedule(1_000, suspend)
    if wake_before_turn:
        sim.schedule(1_000, kernel.resume_process, pcb)
    cluster.run()
    return {
        "events": log.events,
        "seen": seen,
        "event_count": sim.event_count,
        "checked": None if checker is None else checker.events_checked,
        "cpu_used_us": pcb.cpu_used_us,
        "exit_code": pcb.exit_code,
        "slots": [slot[:2] for slot in slots],
        "dispatches": dispatches,
    }


def _replays(monkeypatch, variant, wake_before_turn):
    slotted = _instant(variant, wake_before_turn)
    monkeypatch.setattr(Scheduler, "_schedule_dispatch", _queued_dispatch)
    queued = _instant(variant, wake_before_turn)
    monkeypatch.undo()
    # The queued scheduler reserves nothing and schedules every
    # dispatch: one per slot, filled or retired, and the same others.
    assert queued["slots"] == []
    assert len(queued["dispatches"]) == (
        len(slotted["dispatches"]) + len(slotted["slots"]))
    for key in ("slots", "dispatches"):
        del slotted[key], queued[key]
    assert slotted == queued
    return slotted


def _at_instant(events):
    return [(key, name) for now, key, name in events if now == AT_US]


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_wake_up_before_the_turn_fires_the_dispatch_at_the_slot_key(
        monkeypatch, variant):
    replay = _replays(monkeypatch, variant, wake_before_turn=True)
    if variant == "perturbed":
        return
    assert replay["exit_code"] == 0
    slotted = _instant(variant, wake_before_turn=True)
    (slot_key,) = [key for at, key in slotted["slots"] if at == AT_US]
    # The resume fills the slot: the dispatch runs at the slot's key,
    # ahead of the observer the suspension scheduled after it.
    assert [name for _, name in _at_instant(slotted["events"])] == [
        "suspend", "resume_process", "_dispatch", "observe"]
    assert _at_instant(slotted["events"])[2][0] == slot_key
    assert slotted["seen"] == [True]
    assert AT_US not in slotted["dispatches"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_wake_up_after_the_turn_schedules_a_fresh_dispatch(
        monkeypatch, variant):
    replay = _replays(monkeypatch, variant, wake_before_turn=False)
    if variant == "perturbed":
        return
    assert replay["exit_code"] == 0
    slotted = _instant(variant, wake_before_turn=False)
    (slot_key,) = [key for at, key in slotted["slots"] if at == AT_US]
    # The slot retires as a no-op event; the resume after it queues a
    # dispatch of its own, behind the observer.
    assert _at_instant(slotted["events"]) == [
        (slot_key - 1, "suspend"), (slot_key, "_dispatch"),
        (slot_key + 1, "resume_process"), (slot_key + 2, "observe"),
        (slot_key + 3, "_dispatch")]
    assert slotted["seen"] == [False]
    assert slotted["dispatches"].count(AT_US) == 1


def test_the_perturbed_instant_permutes_ties():
    """The perturbed variant is not the plain one in disguise."""
    assert _instant("perturbed", True)["events"] != _instant(
        "plain", True)["events"]
