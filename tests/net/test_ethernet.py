"""Unit tests for the Ethernet bus, NICs, addresses, loss models and
coalesced receive processing."""

import pytest

from repro.config import DEFAULT_MODEL
from repro.errors import SimulationError
from repro.faults import DuplicateFault, FaultPlane, ReorderFault
from repro.net import (
    BROADCAST,
    BernoulliLoss,
    BurstLoss,
    Ethernet,
    HostAddress,
    Nic,
    NoLoss,
    Packet,
)
from repro.net.addresses import workstation_address
from repro.sim import Simulator

from tests.net.receivers import install


def make_net(n_hosts=2, loss=None, seed=0):
    sim = Simulator(seed=seed)
    net = Ethernet(sim, DEFAULT_MODEL, loss=loss)
    nics = []
    for i in range(n_hosts):
        nic = Nic(sim, workstation_address(i))
        net.attach(nic)
        nics.append(nic)
    return sim, net, nics


class TestAddresses:
    def test_workstation_addresses_are_unique(self):
        addrs = {workstation_address(i) for i in range(100)}
        assert len(addrs) == 100

    def test_address_equality_and_hash(self):
        assert workstation_address(3) == workstation_address(3)
        assert hash(workstation_address(3)) == hash(workstation_address(3))
        assert workstation_address(3) != workstation_address(4)

    def test_broadcast_flag(self):
        assert BROADCAST.is_broadcast
        assert not workstation_address(0).is_broadcast

    def test_address_is_immutable(self):
        addr = workstation_address(0)
        with pytest.raises(AttributeError):
            addr.value = 5

    def test_address_range_checked(self):
        with pytest.raises(SimulationError):
            HostAddress(-1)
        with pytest.raises(SimulationError):
            HostAddress(1 << 48)

    def test_repr_is_colon_hex(self):
        assert repr(workstation_address(0)) == "08:00:20:00:00:01"

    def test_hash_is_the_same_under_any_hash_seed(self):
        """An address hashes by its value alone, so parallel sweep
        workers (each with its own PYTHONHASHSEED) agree on it."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("from repro.net import BROADCAST\n"
                "from repro.net.addresses import workstation_address as w\n"
                "print(hash(w(0)), hash(w(4095)), hash(BROADCAST))")
        hashes = [
            subprocess.run(
                [sys.executable, "-c", code], check=True, capture_output=True,
                text=True, env=dict(os.environ, PYTHONPATH=src,
                                    PYTHONHASHSEED=seed),
            ).stdout
            for seed in ("1", "2")
        ]
        assert hashes[0] == hashes[1]
        assert hashes[0].split() == [
            str(hash(w.value)) for w in
            (workstation_address(0), workstation_address(4095), BROADCAST)
        ]


class TestPacket:
    def test_packet_ids_increment(self):
        a = Packet(workstation_address(0), workstation_address(1), "x", None)
        b = Packet(workstation_address(0), workstation_address(1), "x", None)
        assert b.packet_id > a.packet_id

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(workstation_address(0), BROADCAST, "x", None, size_bytes=-1)

    def test_emit_builds_a_fresh_packet_per_frame(self):
        sim, net, nics = make_net(2)
        kept = []
        install(nics[1], kept.append)
        for kind in ("first", "second"):
            nics[0].emit(nics[1].address, kind, {"kind": kind})
            sim.run()
        first, second = kept
        assert first is not second
        assert second.packet_id > first.packet_id
        assert (first.kind, first.payload) == ("first", {"kind": "first"})

    def test_emit_rejects_negative_size(self):
        sim, net, nics = make_net(2)
        with pytest.raises(ValueError):
            nics[0].emit(nics[1].address, "x", None, size_bytes=-1)


class TestDelivery:
    def test_unicast_reaches_only_destination(self):
        sim, net, nics = make_net(3)
        got = {i: [] for i in range(3)}
        for i, nic in enumerate(nics):
            install(nic, lambda p, i=i: got[i].append(p.kind))
        nics[0].send(Packet(nics[0].address, nics[1].address, "hello", None))
        sim.run()
        assert got[1] == ["hello"]
        assert got[0] == [] and got[2] == []

    def test_broadcast_reaches_everyone_but_sender(self):
        sim, net, nics = make_net(4)
        got = {i: [] for i in range(4)}
        for i, nic in enumerate(nics):
            install(nic, lambda p, i=i: got[i].append(p.kind))
        nics[2].send(Packet(nics[2].address, BROADCAST, "query", None))
        sim.run()
        assert got[2] == []
        assert all(got[i] == ["query"] for i in (0, 1, 3))

    def test_delivery_takes_wire_time(self):
        sim, net, nics = make_net(2)
        arrival = []
        install(nics[1], lambda p: arrival.append(sim.now))
        pkt = Packet(nics[0].address, nics[1].address, "d", None, size_bytes=1024)
        nics[0].send(pkt)
        sim.run()
        assert arrival == [DEFAULT_MODEL.packet_wire_us(1024)]

    def test_bus_serializes_back_to_back_sends(self):
        sim, net, nics = make_net(2)
        arrivals = []
        install(nics[1], lambda p: arrivals.append(sim.now))
        wire = DEFAULT_MODEL.packet_wire_us(1024)
        for _ in range(3):
            nics[0].send(Packet(nics[0].address, nics[1].address, "d", None, size_bytes=1024))
        sim.run()
        assert arrivals == [wire, 2 * wire, 3 * wire]

    def test_packet_to_unknown_address_vanishes(self):
        sim, net, nics = make_net(1)
        nics[0].send(Packet(nics[0].address, workstation_address(99), "x", None))
        sim.run()  # nothing raised

    def test_send_from_detached_nic_vanishes(self):
        sim, net, nics = make_net(2)
        net.detach(nics[0])
        nics[0].send(Packet(nics[0].address, nics[1].address, "x", None))
        sim.run()
        assert net.packets_sent == 0

    def test_packet_to_detached_nic_vanishes(self):
        sim, net, nics = make_net(2)
        got = []
        install(nics[1], lambda p: got.append(p))
        net.detach(nics[1])
        nics[0].send(Packet(nics[0].address, nics[1].address, "x", None))
        sim.run()
        assert got == []

    def test_no_handler_counts_drop(self):
        sim, net, nics = make_net(2)
        nics[0].send(Packet(nics[0].address, nics[1].address, "x", None))
        sim.run()
        assert nics[1].dropped_no_handler == 1

    def test_crashed_nic_counts_broadcast_drop(self):
        sim, net, nics = make_net(4)
        got = []
        for nic in nics:
            install(nic, lambda p, nic=nic: got.append(nic.address))
        nics[2].remove_handler()  # crashed: attached, but no driver
        nics[0].send(Packet(nics[0].address, BROADCAST, "query", None))
        sim.run()
        assert got == [nics[1].address, nics[3].address]
        assert [n.received for n in nics] == [0, 1, 0, 1]
        assert nics[2].dropped_no_handler == 1
        assert sum(n.dropped_no_handler for n in nics) == 1

    def test_duplicate_address_rejected(self):
        sim, net, nics = make_net(1)
        dup = Nic(sim, nics[0].address)
        with pytest.raises(SimulationError):
            net.attach(dup)

    def test_counters(self):
        sim, net, nics = make_net(2)
        install(nics[1], lambda p: None)
        nics[0].send(Packet(nics[0].address, nics[1].address, "x", None, size_bytes=200))
        sim.run()
        assert net.packets_sent == 1
        assert net.bytes_sent == 200

    def test_emit_delivers_like_send(self):
        sim, net, nics = make_net(2)
        got = []
        install(nics[1], lambda p: got.append((p.kind, p.payload)))
        nics[0].emit(nics[1].address, "hello", {"n": 1})
        sim.run()
        assert got == [("hello", {"n": 1})]


class TestBatchedRx:
    """Coalescing happens on the receive-*processing* hop: receivers
    that charge a per-packet protocol delay (as the IPC transport
    does)."""

    @staticmethod
    def _processing_handlers(sim, nics, got, delay_us=25):
        for i, nic in enumerate(nics[1:], start=1):
            install(nic, lambda p, i=i: got.append((i, sim.now)), delay_us)

    def test_broadcast_processing_coalesces_and_preserves_order(self):
        sim, net, nics = make_net(4)
        got = []
        self._processing_handlers(sim, nics, got)
        nics[0].emit(BROADCAST, "q", None)
        sim.run()
        # All three process at the same simulated instant, in attach
        # order -- exactly as three separate events would have.
        assert [i for i, _ in got] == [1, 2, 3]
        assert len({t for _, t in got}) == 1
        assert net.rx_coalesced == 2  # 3 handler timers in 1 event

    def test_event_count_is_transmits_plus_receiving_handlers(self):
        sim, net, nics = make_net(5, seed=3)
        got = []
        self._processing_handlers(sim, nics, got)
        nics[4].remove_handler()  # drops: no processing event
        for _ in range(5):
            nics[0].emit(BROADCAST, "q", None)
        nics[0].emit(nics[1].address, "u", None)
        sim.run()
        receiving = 5 * 3 + 1
        assert len(got) == receiving
        assert sim.event_count == net.packets_sent + receiving
        assert nics[4].dropped_no_handler == 5

    def test_mixed_delays_split_into_ordered_runs(self):
        sim, net, nics = make_net(5)
        got = []
        for i, delay in ((1, 25), (2, 25), (3, 40), (4, 25)):
            install(nics[i], lambda p, i=i: got.append((i, sim.now)), delay)
        nics[0].emit(BROADCAST, "q", None)
        sim.run()
        wire = got[0][1] - 25
        assert got == [(1, wire + 25), (2, wire + 25), (4, wire + 25),
                       (3, wire + 40)]
        # Runs 1-2 and 4 open separate batches: the delay-40 run's timer
        # moved the sequence counter between them.
        assert net.rx_coalesced == 1
        assert sim.event_count == 1 + 4


class TestLossModels:
    def test_no_loss_never_drops(self):
        sim, net, nics = make_net(2, loss=NoLoss())
        got = []
        install(nics[1], lambda p: got.append(p))
        for _ in range(50):
            nics[0].send(Packet(nics[0].address, nics[1].address, "x", None))
        sim.run()
        assert len(got) == 50

    def test_bernoulli_full_loss_drops_everything(self):
        sim, net, nics = make_net(2, loss=BernoulliLoss(1.0))
        got = []
        install(nics[1], lambda p: got.append(p))
        for _ in range(20):
            nics[0].send(Packet(nics[0].address, nics[1].address, "x", None))
        sim.run()
        assert got == []
        assert net.packets_dropped == 20

    def test_bernoulli_partial_loss_is_deterministic_per_seed(self):
        def run(seed):
            sim, net, nics = make_net(2, loss=BernoulliLoss(0.3), seed=seed)
            got = []
            install(nics[1], lambda p: got.append(p.packet_id))
            for _ in range(100):
                nics[0].send(Packet(nics[0].address, nics[1].address, "x", None))
            sim.run()
            return len(got)

        assert run(5) == run(5)
        assert 40 < run(5) < 95  # roughly 70% delivered

    def test_bernoulli_rate_validated(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5)

    def test_burst_loss_produces_runs(self):
        sim, net, nics = make_net(2, loss=BurstLoss(p_good_to_bad=0.2, p_bad_to_good=0.3))
        outcomes = []
        install(nics[1], lambda p: outcomes.append(p.packet_id))
        n = 200
        for _ in range(n):
            nics[0].send(Packet(nics[0].address, nics[1].address, "x", None))
        sim.run()
        assert 0 < len(outcomes) < n  # some dropped, some delivered

    def test_burst_probabilities_validated(self):
        with pytest.raises(ValueError):
            BurstLoss(p_good_to_bad=-0.1)


class TestCalibration:
    def test_bulk_copy_rate_is_about_3s_per_mb(self):
        us = DEFAULT_MODEL.bulk_copy_us(1024 * 1024)
        assert 2_800_000 < us < 3_200_000

    def test_program_load_rate_is_about_330ms_per_100kb(self):
        us = DEFAULT_MODEL.program_load_us(100 * 1024)
        assert 310_000 < us < 350_000

    def test_kernel_state_copy_formula(self):
        assert DEFAULT_MODEL.kernel_state_copy_us(1, 1) == 14_000 + 2 * 9_000
        assert DEFAULT_MODEL.kernel_state_copy_us(3, 2) == 14_000 + 5 * 9_000

    def test_bulk_copy_zero_bytes_is_free(self):
        assert DEFAULT_MODEL.bulk_copy_us(0) == 0

    def test_bulk_copy_partial_packet(self):
        one = DEFAULT_MODEL.bulk_copy_us(100)
        assert one == DEFAULT_MODEL.packet_cost_us(100)


# ------------------------------------------------ unicast receive accounting


def _unicast_run(case):
    """Twelve back-to-back unicasts from NIC 0 to NICs 3, 2, 1 in turn,
    then two 1 KB frames from NIC 1 to NIC 2.  NIC 3's processing delay
    is one wire time longer than NIC 2's, so a frame to NIC 3 and the
    next one to NIC 2 are processed at the same instant (one coalesced
    rx event).  Returns the net, its NICs, the simulator and every
    handler call as ``(nic, frame number, time)``."""
    loss = BernoulliLoss(0.3) if case == "bernoulli" else None
    faults = None
    if case == "faults":
        faults = FaultPlane([DuplicateFault(0.3, delay_us=40),
                             ReorderFault(0.3, max_delay_us=300)])
    sim = Simulator(seed=11)
    net = Ethernet(sim, DEFAULT_MODEL, loss=loss, faults=faults)
    nics = [Nic(sim, workstation_address(i)) for i in range(4)]
    for nic in nics:
        net.attach(nic)
    wire = DEFAULT_MODEL.packet_wire_us(64)
    calls = []
    for i, delay in ((1, 0), (2, 25), (3, 25 + wire)):
        if case == "no-receiver" and i == 3:
            continue
        install(nics[i], lambda p, i=i: calls.append((i, p.payload, sim.now)),
                delay)
    if case == "detached":
        sim.schedule(1, net.detach, nics[2])
    for n in range(12):
        nics[0].emit(nics[3 - n % 3].address, "u", n)
    sim.schedule(5_000, nics[1].emit, nics[2].address, "u", 12, 1024)
    sim.schedule(5_000, nics[1].emit, nics[2].address, "u", 13, 1024)
    sim.run()
    return sim, net, nics, calls


#: Recorded with one ``_deliver_one``/``_arrive`` hop per unicast frame:
#: per-NIC ``received`` and ``dropped_no_handler``, the segment's
#: ``packets_dropped`` and ``rx_coalesced``, events, and handler calls.
UNICAST_RECORDED = {
    "lossless": dict(
        received=[0, 4, 6, 4], no_handler=[0, 0, 0, 0],
        dropped=0, rx_coalesced=4, events=30,
        calls=[(3, 0, 429), (2, 1, 429), (1, 2, 606), (3, 3, 1035),
               (2, 4, 1035), (1, 5, 1212), (3, 6, 1641), (2, 7, 1641),
               (1, 8, 1818), (3, 9, 2247), (2, 10, 2247), (1, 11, 2424),
               (2, 12, 5995), (2, 13, 6965)]),
    "bernoulli": dict(
        received=[0, 2, 3, 3], no_handler=[0, 0, 0, 0],
        dropped=6, rx_coalesced=1, events=24,
        calls=[(1, 2, 606), (3, 3, 1035), (2, 4, 1035), (3, 6, 1641),
               (3, 9, 2247), (1, 11, 2424), (2, 12, 5995), (2, 13, 6965)]),
    "faults": dict(
        received=[0, 6, 8, 5], no_handler=[0, 0, 0, 0],
        dropped=0, rx_coalesced=0, events=46,
        calls=[(3, 0, 429), (2, 1, 429), (3, 0, 469), (1, 2, 606),
               (1, 2, 646), (3, 3, 1035), (1, 5, 1212), (2, 4, 1223),
               (3, 6, 1656), (2, 7, 1683), (2, 7, 1723), (1, 8, 1818),
               (1, 8, 1858), (2, 10, 2329), (2, 10, 2369), (1, 11, 2424),
               (3, 9, 2530), (2, 12, 6274), (2, 13, 6965)]),
    "no-receiver": dict(
        received=[0, 4, 6, 0], no_handler=[0, 0, 0, 4],
        dropped=0, rx_coalesced=0, events=26,
        calls=[(2, 1, 429), (1, 2, 606), (2, 4, 1035), (1, 5, 1212),
               (2, 7, 1641), (1, 8, 1818), (2, 10, 2247), (1, 11, 2424),
               (2, 12, 5995), (2, 13, 6965)]),
    "detached": dict(
        received=[0, 4, 0, 4], no_handler=[0, 0, 0, 0],
        dropped=0, rx_coalesced=0, events=25,
        calls=[(3, 0, 429), (1, 2, 606), (3, 3, 1035), (1, 5, 1212),
               (3, 6, 1641), (1, 8, 1818), (3, 9, 2247), (1, 11, 2424)]),
}


@pytest.mark.parametrize("case", sorted(UNICAST_RECORDED))
def test_unicast_accounting_matches_recorded(case):
    sim, net, nics, calls = _unicast_run(case)
    expected = UNICAST_RECORDED[case]
    assert [nic.received for nic in nics] == expected["received"]
    assert [nic.dropped_no_handler for nic in nics] == expected["no_handler"]
    assert net.packets_dropped == expected["dropped"]
    assert net.rx_coalesced == expected["rx_coalesced"]
    assert sim.event_count == expected["events"]
    assert calls == expected["calls"]
