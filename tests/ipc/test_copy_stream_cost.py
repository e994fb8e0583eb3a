"""What one copied page costs the event core, and what a copy stream
leaves behind.

A lossless CopyTo page is one scheduled event -- the sender's pacing
timer -- and three modelled events: the arrival, the landing at the
receiver's processing instant, and the pacing timer.  The segment folds
the ``copy-data`` frame: it gets no event of its own and is processed,
counted as its landing and arrival, (a) before the receiving NIC's next
landing fires, which for a stream that runs to the end is its
``copy-end``; (b) when the receiver or the NIC's attachment changes,
where a due frame is processed by the receiver it arrived for, an
arrived one gets its own landing and one still on the wire takes the
tx-done hop; or (c) when the stream stops without a ``copy-end``.  A
second scheduled event per page (say, its landing coming back) fails
the pin below.

Folded, landed and hop-delivered streams must be indistinguishable: the
same handler calls, frame counts, event count and applied page versions,
and the same invariant checks as landed pages, for a stream that drains,
a destination that crashes, a receiver that is swapped, and a sender
that stops or crashes mid-stream.
Every stream leaves no landing in flight and no fired event open on the
segment, and a crashed destination processes none of the frames still
due to it.
"""

import pytest

import repro.ipc.transport as transport_module
from repro.config import PAGE_SIZE
from repro.errors import CopyFailedError, NoSuchProcessError
from repro.kernel import CopyToInstr, Delay
from repro.sim import Simulator

from tests.helpers import make_cluster
from tests.net.test_direct_landing import NeverDrops

#: Scheduled and modelled events of a whole run that are not per page:
#: the cluster's start-up, the copy's set-up and its end handshake.
#: Recorded at 16 and 64 pages.  Three of the modelled ones are an idle
#: CPU's dispatch, which only reserves its turn (``Simulator.reserve``)
#: and is not scheduled.
SCHEDULED_BESIDES_PAGES = 17
EVENTS_BESIDES_PAGES = 21


def _fold_state(nic, now):
    """The folded landings at ``nic``: how many are past their
    processing instant, how many arrived but wait for processing, how
    many are still on the wire.  A folded landing is the tuple
    ``(time, seq, packet, done, rx)``."""
    folded = [entry for entry in nic._inflight if type(entry) is tuple]
    due = sum(entry[0] < now for entry in folded)
    on_wire = sum(entry[3] > now for entry in folded)
    return due, len(folded) - due - on_wire, on_wire


def _copy_to(n_pages, crash_after_us=None, *, loss=None, change=None,
             invariants=True):
    """CopyTo ``n_pages`` from ws0 to an idle program on ws1, optionally
    crashing ws1 ``crash_after_us`` into the copy or running ``change``
    = ``(after_us, fn)`` as ``fn(cluster, copier_pcb, dst_pcb)``;
    returns the cluster, the two spaces and the copy's outcome (after a
    crash, preceded by the fold's state and the time at the crash)."""
    cluster = make_cluster(2, seed=5, loss=loss, invariants=invariants)
    a, b = cluster.stations

    def idle():
        yield Delay(600_000_000)

    _, dst_pcb = cluster.spawn_program(
        b, idle(), space_bytes=PAGE_SIZE * n_pages, name="dst")
    src_lh = a.kernel.create_logical_host()
    src_space = a.kernel.allocate_space(src_lh, PAGE_SIZE * n_pages,
                                        name="src")
    src_space.load_image()
    outcome = []
    copier_pcb = []

    def crash():
        now = cluster.sim.now
        outcome.append((_fold_state(b.nic, now), now))
        b.kernel.crash()

    def copier():
        if crash_after_us is not None:
            cluster.sim.schedule(crash_after_us, crash)
        if change is not None:
            after_us, fn = change
            cluster.sim.schedule(after_us, fn, cluster, copier_pcb[0],
                                 dst_pcb)
        try:
            yield CopyToInstr(dst_pcb.pid, src_space.pages)
        except (CopyFailedError, NoSuchProcessError) as exc:
            outcome.append(exc)
        else:
            outcome.append(None)

    copier_pcb.append(
        cluster.spawn_program(a, copier(), lh=src_lh, name="copier")[1])
    cluster.run(until_us=60_000_000)
    return cluster, dst_pcb, src_space, outcome


@pytest.mark.parametrize("n_pages", [16, 64])
def test_a_copied_page_is_one_scheduled_event(monkeypatch, n_pages):
    scheduled = []
    schedule = Simulator.schedule

    def counting(sim, delay_us, fn, *args):
        scheduled.append(fn)
        return schedule(sim, delay_us, fn, *args)

    # Before the cluster is built: the segment caches ``sim.schedule``.
    monkeypatch.setattr(Simulator, "schedule", counting)
    cluster, dst_pcb, src_space, outcome = _copy_to(n_pages)
    assert dst_pcb.space.identical_to(src_space)
    assert outcome == [None]
    # A host query and its reply, the pages, copy-end and its ack.
    assert cluster.net.packets_sent == n_pages + 4
    assert len(scheduled) == n_pages + SCHEDULED_BESIDES_PAGES
    assert cluster.sim.event_count == 3 * n_pages + EVENTS_BESIDES_PAGES


def _assert_nothing_left(net, stations):
    assert all(not station.nic._inflight for station in stations)
    assert net._rx_open is None


def test_a_drained_stream_leaves_no_landing_behind():
    cluster, dst_pcb, src_space, outcome = _copy_to(64)
    assert outcome == [None]
    assert dst_pcb.space.identical_to(src_space)
    _assert_nothing_left(cluster.net, cluster.stations)


@pytest.mark.parametrize("crash_after_us,fold_at_crash,received", [
    # page 12 is on the wire: taken back, then lost
    pytest.param(62_000, (10, 0, 1), 11, id="62000-11"),
    # page 12 arrived and waits for processing: it gets its own landing
    pytest.param(63_500, (10, 1, 0), 12, id="63500-12"),
])
def test_a_destination_crashing_mid_stream_leaves_no_landing_behind(
        crash_after_us, fold_at_crash, received):
    cluster, _, _, outcome = _copy_to(64, crash_after_us)
    (state, _), failure = outcome
    # Pages 2-11 were due before the crash and are processed at it.
    assert state == fold_at_crash
    assert isinstance(failure, CopyFailedError)
    assert cluster.stations[1].nic.received == received
    _assert_nothing_left(cluster.net, cluster.stations)


def _recording(monkeypatch, calls):
    """Wrap every transport handler to record ``(kernel, kind, what)``:
    the page for a ``copy-data`` frame, whose processing the fold moves,
    the processing instant for every other frame."""
    def recording(kind, handler):
        def handle(transport, packet):
            if kind == "copy-data":
                what = packet.payload[1:]
            else:
                what = transport.kernel.sim.now
            calls.append((transport.kernel.name, kind, what))
            return handler(transport, packet)
        return handle

    for kind, handler in list(transport_module._HANDLERS.items()):
        monkeypatch.setitem(transport_module._HANDLERS, kind,
                            recording(kind, handler))


@pytest.mark.parametrize("crash_after_us", [63_500, 63_800])
def test_a_crashed_destination_processes_nothing(monkeypatch,
                                                 crash_after_us):
    """A frame that reached ws1 before its crash but is processed after
    it is counted by the NIC and then ignored: no protocol handler runs
    on the dead kernel."""
    handled = []

    def recording(handler):
        def handle(transport, packet):
            handled.append((transport.kernel.name, transport.kernel.sim.now))
            return handler(transport, packet)
        return handle

    for kind, handler in list(transport_module._HANDLERS.items()):
        monkeypatch.setitem(transport_module._HANDLERS, kind,
                            recording(handler))
    cluster, _, _, outcome = _copy_to(64, crash_after_us)
    (_, crashed_at), _ = outcome
    victim = cluster.stations[1].kernel.name
    on_victim = [at for name, at in handled if name == victim]
    assert on_victim, "ws1 processed nothing before its crash"
    assert max(on_victim) <= crashed_at


def _swap(cluster, copier_pcb, dst_pcb):
    """ws1's receiver is swapped for a fresh install of its transport."""
    nic = cluster.stations[1].nic
    nic.install_handler(cluster.stations[1].kernel.ipc)


def _gap(cluster, copier_pcb, dst_pcb):
    """ws1 has no receiver for 10 ms: the frames arriving then are
    dropped and recovered by a copy-nak."""
    station = cluster.stations[1]
    station.nic.remove_handler()
    cluster.sim.schedule(10_000, station.nic.install_handler,
                         station.kernel.ipc)


def _stop_sender(cluster, copier_pcb, dst_pcb):
    """The copier is destroyed: its record completes and the stream
    stops with no copy-end."""
    cluster.stations[0].kernel.destroy_process(copier_pcb)


def _crash_sender(cluster, copier_pcb, dst_pcb):
    """ws0 crashes: its NIC is detached and its stream sends nothing
    more."""
    cluster.stations[0].kernel.crash()


#: name -> _copy_to arguments of the stream, at a 64-page copy (a page
#: is paced every ~5.9 ms; the stream starts at 0.3 ms).
STREAMS = {
    "drained": {},
    "drained-unchecked": {"invariants": False},
    "destination-crash-on-wire": {"crash_after_us": 62_000},
    "destination-crash-arrived": {"crash_after_us": 63_500},
    "receiver-swapped-on-wire": {"change": (62_000, _swap)},
    "receiver-swapped-arrived": {"change": (63_500, _swap)},
    "receiver-gap": {"change": (40_000, _gap)},
    "sender-stops": {"change": (40_000, _stop_sender)},
    "sender-crashes": {"change": (63_500, _crash_sender)},
}


def _observe(monkeypatch, delivery, stream):
    """Run ``stream`` with its pages ``folded``, ``landed`` (a receiver
    that declares no fold kinds) or sent through the ``hop`` (a loss
    model that never drops); returns the observables and the cluster."""
    calls = []
    _recording(monkeypatch, calls)
    if delivery == "landed":
        monkeypatch.setattr(transport_module.Transport, "rx_folds",
                            frozenset())
    loss = NeverDrops() if delivery == "hop" else None
    cluster, dst_pcb, _, outcome = _copy_to(64, loss=loss, **stream)
    monkeypatch.undo()
    invariants = cluster.sim.invariants
    observed = dict(
        calls=[call for call in calls if call[1] != "copy-data"],
        pages=[call for call in calls if call[1] == "copy-data"],
        received=[station.nic.received for station in cluster.stations],
        no_handler=[station.nic.dropped_no_handler
                    for station in cluster.stations],
        events=cluster.sim.event_count,
        checked=None if invariants is None else invariants.events_checked,
        versions=list(dst_pcb.space.versions),
        packets=cluster.net.packets_sent,
        outcome=[type(item).__name__ for item in outcome],
    )
    return observed, cluster


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_a_folded_stream_matches_landed_and_hop_streams(monkeypatch, name):
    """Folded pages equal landed ones in every observable, invariant
    checks included, and hop-delivered ones in every observable but the
    checks: the hop schedules each arrival as an event of its own, which
    the checker sees too, while a landing only counts it."""
    folded, cluster = _observe(monkeypatch, "folded", STREAMS[name])
    landed, _ = _observe(monkeypatch, "landed", STREAMS[name])
    hop, _ = _observe(monkeypatch, "hop", STREAMS[name])
    assert folded == landed
    assert folded["pages"], "no page was processed"
    assert (folded["checked"] is None) == (name == "drained-unchecked")
    if folded["checked"] is not None:
        assert hop.pop("checked") > folded.pop("checked")
    assert folded == {key: hop[key] for key in folded}
    _assert_nothing_left(cluster.net, cluster.stations)


def test_a_copy_into_a_dead_target_leaves_no_buffered_pages():
    """The target process dies mid-stream: copy-end finds no target,
    NAKs the sender dead and drops the pages it buffered."""
    def kill_target(cluster, copier_pcb, dst_pcb):
        cluster.stations[1].kernel.destroy_process(dst_pcb)

    cluster, _, _, outcome = _copy_to(64, change=(30_000, kill_target))
    assert outcome and outcome[-1] is not None
    assert cluster.stations[1].kernel.ipc.copies.inbound == {}
    _assert_nothing_left(cluster.net, cluster.stations)
