"""Packet free-list pool: reuse, safety guards, counters, batched rx."""

import sys

from repro.config import DEFAULT_MODEL
from repro.net import Ethernet, Nic, Packet
from repro.net.addresses import workstation_address
from repro.net.packet import PacketPool
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator

from tests.net.receivers import install


def make_net(n_hosts=2, seed=0):
    sim = Simulator(seed=seed)
    net = Ethernet(sim, DEFAULT_MODEL)
    nics = []
    for i in range(n_hosts):
        nic = Nic(sim, workstation_address(i))
        net.attach(nic)
        nics.append(nic)
    return sim, net, nics


class TestPacketPool:
    def test_alloc_restamps_every_field(self):
        pool = PacketPool(enabled=True)
        a = pool.alloc(workstation_address(0), workstation_address(1),
                       "first", {"x": 1}, 100)
        first_id = a.packet_id
        assert pool.release(a)
        b = pool.alloc(workstation_address(2), workstation_address(3),
                       "second", None, 64)
        assert b is a  # recycled object
        assert b.src == workstation_address(2)
        assert b.dst == workstation_address(3)
        assert b.kind == "second"
        assert b.payload is None
        assert b.size_bytes == 64
        assert b.packet_id > first_id  # identity is fresh
        assert not b.is_broadcast

    def test_release_refuses_referenced_packet(self):
        pool = PacketPool(enabled=True)
        p = pool.alloc(workstation_address(0), workstation_address(1),
                       "k", None, 64)
        keeper = p  # second reference: recycling would alias live state
        assert not pool.release(p)
        assert keeper.kind == "k"

    def test_held_parameter_accounts_for_container_refs(self):
        pool = PacketPool(enabled=True)
        p = pool.alloc(workstation_address(0), workstation_address(1),
                       "k", None, 64)
        box = (p,)
        assert sys.getrefcount(p) == 3  # p + box + getrefcount arg
        assert not pool.release(p)
        assert pool.release(p, held=1)
        del box

    def test_release_clears_payload(self):
        pool = PacketPool(enabled=True)
        payload = {"big": list(range(10))}
        p = pool.alloc(workstation_address(0), workstation_address(1),
                       "k", payload, 64)
        assert pool.release(p)
        assert p.payload is None  # pool must not pin payloads alive

    def test_disabled_pool_never_recycles(self):
        pool = PacketPool(enabled=False)
        p = pool.alloc(workstation_address(0), workstation_address(1),
                       "k", None, 64)
        assert not pool.release(p)
        q = pool.alloc(workstation_address(0), workstation_address(1),
                       "k", None, 64)
        assert q is not p
        assert pool.stats()["reused"] == 0

    def test_counters_and_metrics(self):
        pool = PacketPool(enabled=True)
        registry = MetricsRegistry()
        registry.enable()
        pool.bind_metrics(registry)
        p = pool.alloc(workstation_address(0), workstation_address(1),
                       "k", None, 64)
        pool.release(p)
        pool.alloc(workstation_address(0), workstation_address(1),
                   "k", None, 64)
        stats = pool.stats()
        assert stats["allocated"] == 2
        assert stats["recycled"] == 1
        assert stats["reused"] == 1
        snap = registry.snapshot()
        cluster = snap["cluster"]
        assert cluster["net.pool_reused"] == 1
        assert cluster["net.pool_recycled"] == 1


class TestPooledDelivery:
    def test_emit_delivers_like_send(self):
        sim, net, nics = make_net(2)
        got = []
        install(nics[1], lambda p: got.append((p.kind, p.payload)))
        nics[0].emit(nics[1].address, "hello", {"n": 1})
        sim.run()
        assert got == [("hello", {"n": 1})]

    def test_packets_recycle_through_the_wire(self):
        sim, net, nics = make_net(2)
        # A transport-like processing delay: on the hybrid event core a
        # same-instant step could still see the delivery timer's args.
        install(nics[1], lambda p: None, rx_delay_us=25)
        for _ in range(20):
            nics[0].emit(nics[1].address, "x", None)
            sim.run()
        stats = net.pool.stats()
        # First trip allocates; later trips reuse the recycled object.
        assert stats["recycled"] >= 19
        assert stats["reused"] >= 19

    def test_handler_keeping_packet_blocks_recycling(self):
        sim, net, nics = make_net(2)
        kept = []
        install(nics[1], kept.append)
        nics[0].emit(nics[1].address, "keep", {"v": 7})
        sim.run()
        assert kept[0].payload == {"v": 7}  # not clobbered
        nics[0].emit(nics[1].address, "second", None)
        sim.run()
        assert kept[0].kind == "keep"  # still not recycled out from under us


class TestBatchedRx:
    """Coalescing happens on the receive-*processing* hop: receivers
    that charge a per-packet protocol delay (as the IPC transport
    does)."""

    @staticmethod
    def _processing_handlers(sim, nics, got, delay_us=25):
        for i, nic in enumerate(nics[1:], start=1):
            install(nic, lambda p, i=i: got.append((i, sim.now)), delay_us)

    def test_broadcast_processing_coalesces_and_preserves_order(self):
        from repro.net import BROADCAST

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
        from repro.net import BROADCAST

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
        from repro.net import BROADCAST

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

    def test_batched_packets_recycle_after_processing(self):
        from repro.net import BROADCAST

        sim, net, nics = make_net(3)
        got = []
        self._processing_handlers(sim, nics, got)
        nics[0].emit(BROADCAST, "q", None)
        sim.run()
        assert len(got) == 2
        assert net.pool.stats()["recycled"] >= 1
