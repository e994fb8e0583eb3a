"""Unit tests for workstation assembly and logical hosts."""

import pytest

from repro.config import PAGE_SIZE
from repro.errors import KernelError, NoSuchProcessError
from repro.kernel import AddressSpace, LogicalHost, Pcb
from repro.kernel.ids import Pid

from tests.helpers import BareCluster


class TestWorkstationBoot:
    def test_kernel_server_installed_at_boot(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]
        assert ws.kernel.kernel_server_pcb is not None
        assert ws.kernel.kernel_server_pcb.alive
        assert ws.kernel_server_pid == ws.kernel.kernel_server_pcb.pid

    def test_program_manager_absent_on_bare_station(self):
        cluster = BareCluster(n=1)
        assert cluster.stations[0].program_manager_pid is None

    def test_system_lh_hosted(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]
        assert ws.kernel.hosts_lhid(ws.system_lh.lhid)

    def test_distinct_names_and_addresses(self):
        cluster = BareCluster(n=3)
        names = {ws.name for ws in cluster.stations}
        addrs = {ws.address for ws in cluster.stations}
        assert len(names) == 3 and len(addrs) == 3

    def test_crash_silences_host(self):
        cluster = BareCluster(n=2)
        ws = cluster.stations[1]
        ws.crash()
        assert not ws.kernel.alive
        assert ws.kernel.logical_hosts == {}
        assert cluster.net.nic_at(ws.address) is None

    def test_reset_world_restarts_lhid_allocation(self):
        a = BareCluster(n=1)
        first = a.stations[0].system_lh.lhid
        b = BareCluster(n=1)
        assert b.stations[0].system_lh.lhid == first

    def test_two_live_worlds_never_share_an_lhid(self):
        # Building a second world must not rewind the first one's
        # allocator: each simulator carries its own counter.
        a = BareCluster(n=1)
        taken = a.stations[0].system_lh.lhid
        BareCluster(n=1)
        assert a.stations[0].kernel.allocate_lhid() == taken + 1


def _parked():
    from repro.kernel.process import Delay

    yield Delay(10**9)


class TestLogicalHost:
    def make(self):
        lh = LogicalHost(0x50)
        space = AddressSpace(PAGE_SIZE * 4)
        lh.add_space(space)
        return lh, space

    def test_add_remove_space(self):
        lh, space = self.make()
        assert lh.total_bytes() == PAGE_SIZE * 4
        lh.remove_space(space)
        assert lh.spaces == []
        with pytest.raises(KernelError):
            lh.remove_space(space)

    def test_allocate_index_skips_group_bit(self):
        lh, _ = self.make()
        for _ in range(100):
            index = lh.allocate_index()
            assert not index & 0x8000

    def test_add_process_rejects_duplicates(self):
        lh, space = self.make()
        pcb = Pcb(Pid(0x50, 1), lh, space, _parked())
        lh.processes[1] = pcb
        dup = Pcb(Pid(0x50, 1), lh, space, _parked())
        with pytest.raises(KernelError):
            lh.add_process(dup)

    def test_remove_process_validates_membership(self):
        lh, space = self.make()
        stranger = Pcb(Pid(0x50, 7), lh, space, _parked())
        with pytest.raises(NoSuchProcessError):
            lh.remove_process(stranger)

    def test_live_processes_in_index_order(self):
        lh, space = self.make()
        for index in (5, 2, 9):
            pcb = Pcb(Pid(0x50, index), lh, space, _parked())
            lh.processes[index] = pcb
        assert [p.pid.local_index for p in lh.live_processes()] == [2, 5, 9]

    def test_defer_requires_frozen(self):
        lh, _ = self.make()
        with pytest.raises(KernelError):
            lh.defer_request(("sender", "msg"))
        lh.frozen = True
        lh.defer_request(("sender", "msg"))
        assert lh.drain_deferred() == [("sender", "msg")]
        assert lh.deferred_requests == []

    def test_group_id_cannot_be_a_process(self):
        lh, space = self.make()
        with pytest.raises(KernelError):
            Pcb(Pid(0x50, 0x8001), lh, space, _parked())


class TestKernelLookups:
    def test_require_pcb_returns_or_raises(self):
        from repro.kernel.ids import Pid

        cluster = BareCluster(n=1)
        ws = cluster.stations[0]
        ks = ws.kernel.kernel_server_pcb
        assert ws.kernel.require_pcb(ks.pid) is ks
        with pytest.raises(NoSuchProcessError):
            ws.kernel.require_pcb(Pid(0x77, 0x77))


def test_process_body_must_be_generator():
    from repro.config import PAGE_SIZE
    from repro.kernel import AddressSpace, LogicalHost, Pcb
    from repro.kernel.ids import Pid

    lh = LogicalHost(0x60)
    space = AddressSpace(PAGE_SIZE)
    with pytest.raises(KernelError):
        Pcb(Pid(0x60, 1), lh, space, lambda: None)
    with pytest.raises(KernelError):
        Pcb(Pid(0x60, 1), lh, space, "not a generator")
