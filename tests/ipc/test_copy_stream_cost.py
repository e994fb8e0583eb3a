"""What one copied page costs the event core, and what a copy stream
leaves behind.

A lossless CopyTo page is two scheduled events -- the sender's pacing
timer and one landing at the receiver's processing instant -- and three
modelled events: the elided arrival still counts.  A third scheduled
event per page (say, a tx-done hop coming back) fails the pin below.
A stream that drains, or whose destination crashes mid-stream, leaves
no landing in flight and no fired event open on the segment, and a
crashed destination processes none of the frames still due to it.
"""

import pytest

import repro.ipc.transport as transport_module
from repro.config import PAGE_SIZE
from repro.errors import CopyFailedError
from repro.kernel import CopyToInstr, Delay
from repro.sim import Simulator

from tests.helpers import make_cluster

#: Scheduled and modelled events of a whole run that are not per page:
#: the cluster's start-up, the copy's set-up and its end handshake.
#: Recorded at 16 and 64 pages.
SCHEDULED_BESIDES_PAGES = 20
EVENTS_BESIDES_PAGES = 21


def _copy_to(n_pages, crash_after_us=None):
    """CopyTo ``n_pages`` from ws0 to an idle program on ws1 over a
    lossless segment, optionally crashing ws1 ``crash_after_us`` into
    the copy; returns the cluster and the copy's outcome (after a
    crash, preceded by the landings in flight and the time at the
    crash)."""
    cluster = make_cluster(2, seed=5)
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

    def crash():
        outcome.append((len(b.nic._inflight), cluster.sim.now))
        b.kernel.crash()

    def copier():
        if crash_after_us is not None:
            cluster.sim.schedule(crash_after_us, crash)
        try:
            yield CopyToInstr(dst_pcb.pid, src_space.pages)
        except CopyFailedError as exc:
            outcome.append(exc)
        else:
            outcome.append(None)

    cluster.spawn_program(a, copier(), lh=src_lh, name="copier")
    cluster.run(until_us=60_000_000)
    return cluster, dst_pcb, src_space, outcome


@pytest.mark.parametrize("n_pages", [16, 64])
def test_a_copied_page_is_two_scheduled_events(monkeypatch, n_pages):
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
    assert len(scheduled) == 2 * n_pages + SCHEDULED_BESIDES_PAGES
    assert cluster.sim.event_count == 3 * n_pages + EVENTS_BESIDES_PAGES


def _assert_nothing_left(net, stations):
    assert all(not station.nic._inflight for station in stations)
    assert net._rx_open is None


def test_a_drained_stream_leaves_no_landing_behind():
    cluster, dst_pcb, src_space, outcome = _copy_to(64)
    assert outcome == [None]
    assert dst_pcb.space.identical_to(src_space)
    _assert_nothing_left(cluster.net, cluster.stations)


@pytest.mark.parametrize("crash_after_us,received", [
    (62_000, 11),  # page 12 is on the wire: taken back, then lost
    (63_500, 12),  # page 12 arrived and waits for processing: kept
])
def test_a_destination_crashing_mid_stream_leaves_no_landing_behind(
        crash_after_us, received):
    cluster, _, _, outcome = _copy_to(64, crash_after_us)
    (in_flight_at_crash, _), failure = outcome
    assert in_flight_at_crash == 1
    assert isinstance(failure, CopyFailedError)
    assert cluster.stations[1].nic.received == received
    _assert_nothing_left(cluster.net, cluster.stations)


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
