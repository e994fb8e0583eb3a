"""A lossless unicast lands in one event; reception is still decided at
arrival.

On a segment with no fault plane and :class:`NoLoss`, a unicast to a NIC
with a receiver skips the tx-done ``_deliver`` hop: it is scheduled at
transmit time straight at its processing instant.  A loss model that
never drops keeps every frame on the hop.  The two must be
indistinguishable -- the same handler calls at the same instants and
the same counters and event count -- including when the destination is
detached or its receiver is removed or swapped while frames are on the
wire, waiting for processing, or already processed.

A receiver that declares fold kinds gets those frames folded: no event
of their own, processed before the NIC's next landing or at a change.
Each receiver then processes the same frames in the same order, with
the same counters and event count, as when they are landed.
"""

import pytest

from repro.config import DEFAULT_MODEL
from repro.net import Ethernet, LossModel, Nic
from repro.net.addresses import workstation_address
from repro.sim import Simulator

from tests.net.receivers import install

WIRE = DEFAULT_MODEL.packet_wire_us(64)
#: NIC 2's processing delay: two wire times, so several of its frames
#: are arrived but unprocessed at once.
DELAY = 2 * WIRE + 25
#: The swapped-in receiver's shorter delay: frames landed after the swap
#: are processed before earlier ones still waiting under ``DELAY``.
SHORT_DELAY = 10


class NeverDrops(LossModel):
    """A loss model that delivers everything, through the hop."""

    def drops(self, sim, packet):
        return False


def _frames():
    """(source, destination, frame number) per emitted frame: a round
    robin from NIC 0 over NICs 3, 2, 1, then NIC 1 to NIC 2."""
    frames = [(0, 3 - n % 3, n) for n in range(12)]
    return frames + [(1, 2, 12), (1, 2, 13)]


#: The last frame to each NIC: kind ``end``, every other frame is ``u``
#: -- a stream whose ``u`` frames a folding receiver may fold.
LAST = {9, 11, 13}


#: NIC 2 frames whose arrival and processing the change instants
#: straddle: frame 4, with frames 7 and 10 still to come, and frame 10,
#: the last one from NIC 0 (NIC 1's frames land after it, and under a
#: swapped-in ``SHORT_DELAY`` before it).
PIVOTS = (4, 10)


def _instant(name, pivot):
    """An instant relative to frame ``pivot``, which (NIC 0 sending back
    to back from 0) arrives at ``pivot + 1`` wire times."""
    arrival = (pivot + 1) * WIRE
    return {"before-arrival": arrival - 1,
            "before-processing": arrival + 1,
            "after-processing": arrival + DELAY + 1}[name]


INSTANTS = ("before-arrival", "before-processing", "after-processing")
#: When NIC 1 sends its two frames: after every change but the last,
#: while NIC 0 still holds the bus.
SECOND_SOURCE_AT = 11 * WIRE + 2


def _change(case, net, nics, calls, sim, folds=()):
    """Apply ``case`` to NIC 2 now."""
    nic = nics[2]
    if case == "detach":
        net.detach(nic)
    elif case == "reattach":
        net.detach(nic)
        sim.schedule(WIRE, net.attach, nic)
    elif case == "remove":
        nic.remove_handler()
    elif case == "reinstall":
        nic.remove_handler()
        install(nic, lambda p: calls.append(("2'", p.payload, sim.now)),
                SHORT_DELAY, folds)


def _run(loss, case, instant, folds=()):
    """Run the traffic with ``case`` applied at ``instant``, receivers
    folding the kinds in ``folds``; returns the observables, how many
    events were scheduled, the segment and its NICs."""
    sim = Simulator(seed=4)
    scheduled = []
    schedule = sim.schedule

    def counting(delay_us, fn, *args):
        scheduled.append(fn)
        return schedule(delay_us, fn, *args)

    sim.schedule = counting
    net = Ethernet(sim, DEFAULT_MODEL, loss=loss)
    nics = [Nic(sim, workstation_address(i)) for i in range(4)]
    for nic in nics:
        net.attach(nic)
    calls = []
    # NIC 3 takes one wire time longer than NIC 2, so a frame to NIC 3
    # and the next one, to NIC 2, are processed at the same instant.
    for i, delay in ((1, 0), (2, DELAY), (3, DELAY + WIRE)):
        install(nics[i], lambda p, i=i: calls.append((str(i), p.payload,
                                                      sim.now)), delay, folds)
    if case is not None:
        sim.schedule(instant, _change, case, net, nics, calls, sim, folds)
    for src, dst, n in _frames():
        at = 0 if src == 0 else SECOND_SOURCE_AT
        sim.schedule(at, nics[src].emit, nics[dst].address,
                     "end" if n in LAST else "u", n)
    sim.run()
    observed = dict(
        calls=calls,
        received=[nic.received for nic in nics],
        no_handler=[nic.dropped_no_handler for nic in nics],
        rx_coalesced=net.rx_coalesced,
        events=sim.event_count,
    )
    return observed, len(scheduled), net, nics


CASES = [(None, None, None)] + [
    (case, instant, pivot)
    for case in ("detach", "remove", "reinstall")
    for instant in INSTANTS
    for pivot in PIVOTS
]


@pytest.mark.parametrize(
    "case,instant,pivot", CASES,
    ids=["unchanged"] + [f"{c}@{i}-{p}" for c, i, p in CASES[1:]])
def test_direct_landing_matches_the_hop(case, instant, pivot):
    at = _instant(instant, pivot) if case else None
    direct, direct_scheduled, net, nics = _run(None, case, at)
    hop, hop_scheduled, _, _ = _run(NeverDrops(), case, at)
    assert direct == hop
    # The direct run really skipped hops, and something was received.
    assert direct_scheduled < hop_scheduled
    assert direct["calls"]
    # Nothing is left in flight and no fired event stays open.
    assert all(not nic._inflight for nic in nics)
    assert net._rx_open is None


@pytest.mark.parametrize("pivot", PIVOTS)
@pytest.mark.parametrize("instant", INSTANTS)
def test_a_reattached_nic_receives_what_arrives_after(instant, pivot):
    """Detached, then attached again one wire time later: frames that
    arrive in between are dropped, frames arriving after are received,
    exactly as on the hop.  Only ``rx_coalesced`` may differ: a frame
    taken back at the detach gets its processing scheduled at its
    arrival, so it no longer shares the event it was landed in."""
    at = _instant(instant, pivot)
    direct, direct_scheduled, net, nics = _run(None, "reattach", at)
    hop, hop_scheduled, _, _ = _run(NeverDrops(), "reattach", at)
    assert direct.pop("rx_coalesced") <= hop.pop("rx_coalesced")
    assert direct == hop
    assert direct_scheduled < hop_scheduled
    assert all(not nic._inflight for nic in nics)
    assert net._rx_open is None


def test_the_cases_exercise_coalescing_and_drops():
    """The traffic coalesces processing and the changes drop frames, so
    the equality above covers ``rx_coalesced`` and
    ``dropped_no_handler`` moving, not only staying at zero."""
    unchanged, *_ = _run(None, None, None)
    assert unchanged["rx_coalesced"] > 0
    removed, *_ = _run(None, "remove", _instant("before-arrival", 4))
    assert removed["no_handler"][2] > 0
    swapped, *_ = _run(None, "reinstall", _instant("before-processing", 10))
    who = [name for name, _, _ in swapped["calls"]]
    # The swapped-in receiver processes NIC 1's frame before the old
    # one processes frame 10, which arrived before the swap.
    assert who.index("2'") < len(who) - 1 - who[::-1].index("2")


def test_a_frame_due_at_the_change_instant_keeps_its_tie_order():
    """A receiver removed at the very instant a frame arrives: the frame
    arrived first iff it was sent before the removal was scheduled, as
    with the hop's (time, seq) order."""
    arrival = _instant("before-arrival", 4) + 1
    for removal_first in (True, False):
        results = []
        for loss in (None, NeverDrops()):
            sim = Simulator(seed=4)
            net = Ethernet(sim, DEFAULT_MODEL, loss=loss)
            nics = [Nic(sim, workstation_address(i)) for i in range(2)]
            for nic in nics:
                net.attach(nic)
            calls = []
            install(nics[1], lambda p: calls.append((p.payload, sim.now)),
                    DELAY)
            if removal_first:
                sim.schedule(arrival, nics[1].remove_handler)
            for n in range(5):
                nics[0].emit(nics[1].address, "u", n)
            if not removal_first:
                sim.schedule(arrival, nics[1].remove_handler)
            sim.run()
            results.append((calls, nics[1].received,
                            nics[1].dropped_no_handler, sim.event_count))
        assert results[0] == results[1]
        assert results[0][2] == (1 if removal_first else 0)


def _untimed(observed):
    """``observed`` without what a fold may move: the instant a folded
    (``u``) frame is processed, hence the order of calls across
    receivers, and ``rx_coalesced``.  Each receiver's own calls keep
    their order."""
    observed = dict(observed)
    del observed["rx_coalesced"]
    calls = [(name, n, at if n in LAST else None)
             for name, n, at in observed["calls"]]
    observed["calls"] = sorted(calls, key=lambda call: call[0])
    return observed


@pytest.mark.parametrize(
    "case,instant,pivot", CASES,
    ids=["unchanged"] + [f"{c}@{i}-{p}" for c, i, p in CASES[1:]])
def test_folded_landings_match_direct_ones(case, instant, pivot):
    """Receivers that fold ``u`` frames: each receiver processes the same
    frames in the same order, the closing frames at the same instants,
    with the same counters and event count, and fewer events are
    scheduled; nothing is left folded."""
    at = _instant(instant, pivot) if case else None
    folded, folded_scheduled, net, nics = _run(None, case, at, ("u",))
    direct, direct_scheduled, _, _ = _run(None, case, at)
    assert _untimed(folded) == _untimed(direct)
    assert folded_scheduled < direct_scheduled
    assert all(not nic._inflight for nic in nics)
    assert net._rx_open is None


#: Crash instants at a tie: the arrival of frame 4, and the processing
#: instant of frame 1 -> (frames processed, whether each ran before the
#: crash).
TIES = {
    "arrival": (5 * WIRE, [(0, True), (1, True), (2, False), (3, False),
                           (4, False)]),
    "processing": (2 * WIRE + DELAY, [(0, True), (1, True), (2, False),
                                      (3, False)]),
}


@pytest.mark.parametrize("tie", sorted(TIES))
def test_a_crash_at_a_tie_instant_keeps_the_tie_order(tie):
    """A crash removes the receiver, detaches the NIC and then marks the
    host dead, in one event scheduled after every frame was sent.  A
    frame due at that very instant was processed before it; a frame
    arriving at it has arrived: the first change gives it a landing of
    its own, and the second must not take it back.  Folded and landed
    frames agree; the closing frame is lost.  The hop agrees at the
    arrival tie only: its processing step takes its heap key at arrival,
    after the crash was scheduled (the module docstring of
    :mod:`repro.net.ethernet` names this one order difference)."""
    crash_at, expected = TIES[tie]
    results = []
    for folds, loss in ((("u",), None), ((), None), ((), NeverDrops())):
        sim = Simulator(seed=4)
        net = Ethernet(sim, DEFAULT_MODEL, loss=loss)
        nics = [Nic(sim, workstation_address(i)) for i in range(2)]
        for nic in nics:
            net.attach(nic)
        calls = []
        alive = [True]
        install(nics[1], lambda p: calls.append((p.payload, alive[0])),
                DELAY, folds)
        for n in range(6):
            nics[0].emit(nics[1].address, "end" if n == 5 else "u", n)

        def crash(nic=nics[1], net=net, alive=alive):
            nic.remove_handler()
            net.detach(nic)
            alive[0] = False

        sim.schedule(crash_at, crash)
        sim.run()
        assert not nics[1]._inflight
        results.append((calls, nics[1].received, nics[1].dropped_no_handler,
                        sim.event_count))
    assert results[0] == results[1]
    assert results[0][0] == expected
    if tie == "arrival":
        assert results[1] == results[2]
