"""Unit tests for the Ethernet bus, NICs, addresses and loss models."""

import pytest

from repro.config import DEFAULT_MODEL
from repro.errors import SimulationError
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


class TestPacket:
    def test_packet_ids_increment(self):
        a = Packet(workstation_address(0), workstation_address(1), "x", None)
        b = Packet(workstation_address(0), workstation_address(1), "x", None)
        assert b.packet_id > a.packet_id

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(workstation_address(0), BROADCAST, "x", None, size_bytes=-1)


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
