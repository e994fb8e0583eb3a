"""Unit tests for demand paging and flush-based migration (paper §3.2)."""

import pytest

from repro.config import DEFAULT_MODEL, PAGE_SIZE
from repro.kernel import AddressSpace, Compute, TouchPages
from repro.kernel.process import Priority
from repro.vm import Pager, attach_pager

from tests.helpers import BareCluster


class TestPagerMechanics:
    def make_space(self, pages=16):
        space = AddressSpace(PAGE_SIZE * pages)
        pager = Pager(DEFAULT_MODEL).attach(space)
        return space, pager

    def test_attach_marks_pages_resident_by_default(self):
        space, pager = self.make_space()
        assert all(p.resident for p in space.pages)

    def test_attach_nonresident(self):
        space = AddressSpace(PAGE_SIZE * 4)
        Pager(DEFAULT_MODEL).attach(space, resident=False)
        assert not any(p.resident for p in space.pages)

    def test_fault_installs_stored_version_and_costs_time(self):
        space, pager = self.make_space()
        space.pages[3].version = 7
        pager.flush([space.pages[3]])
        space.pages[3].resident = False
        space.pages[3].version = 0  # simulate a fresh destination page
        cost = pager.service_faults([3])
        assert cost == DEFAULT_MODEL.page_fault_service_us
        assert space.pages[3].resident
        assert space.pages[3].version == 7
        assert pager.faults == 1
        assert pager.double_transfers == 1

    def test_fault_on_resident_page_is_free(self):
        space, pager = self.make_space()
        assert pager.service_faults([0, 1]) == 0
        assert pager.faults == 0

    def test_flush_clears_dirty_and_counts(self):
        space, pager = self.make_space()
        space.touch_pages([0, 1, 2])
        count, cost = pager.flush_all_dirty()
        assert count == 3
        assert cost == 3 * DEFAULT_MODEL.page_flush_us_per_page
        assert space.dirty_pages() == []
        assert pager.store == {0: 1, 1: 1, 2: 1}

    def test_dirty_resident_pages_excludes_nonresident(self):
        space, pager = self.make_space()
        space.touch_pages([0, 1])
        space.pages[1].resident = False
        assert [p.index for p in pager.dirty_resident_pages()] == [0]

    def test_evict_clean_drops_only_current_pages(self):
        space, pager = self.make_space(4)
        space.touch_pages([0, 1])
        pager.flush([space.pages[0]])
        space.pages[1].dirty = False  # clean but never flushed: not evictable
        evicted = pager.evict_clean()
        assert evicted >= 1
        assert not space.pages[0].resident
        assert space.pages[1].resident

    def test_touch_indexes_helper(self):
        space, pager = self.make_space()
        assert pager.indexes_for_touch(0, 1) == [0]
        assert pager.indexes_for_touch(PAGE_SIZE - 1, 2) == [0, 1]
        assert pager.indexes_for_touch(0, 0) == []


class TestSchedulerIntegration:
    def test_touch_to_paged_out_page_charges_fault_time(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]
        times = []

        def body():
            yield Compute(1_000)
            start = cluster.sim.now
            yield TouchPages([0, 1, 2])
            times.append(cluster.sim.now - start)

        lh, pcb = cluster.spawn_program(ws, body(), space_bytes=PAGE_SIZE * 8)
        pager = attach_pager(ws.kernel, lh.spaces[0])
        for page in lh.spaces[0].pages:
            page.resident = False
        cluster.run()
        assert times and times[0] >= 3 * DEFAULT_MODEL.page_fault_service_us
        assert pager.faults == 3

    def test_resident_touches_cost_nothing_extra(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]
        times = []

        def body():
            yield Compute(1_000)
            start = cluster.sim.now
            yield TouchPages([0, 1, 2])
            times.append(cluster.sim.now - start)

        lh, pcb = cluster.spawn_program(ws, body(), space_bytes=PAGE_SIZE * 8)
        attach_pager(ws.kernel, lh.spaces[0])
        cluster.run()
        assert times and times[0] < 1_000


class TestVmFlushMigration:
    def _setup(self):
        """A cluster where ws1 runs a paged churner program to migrate."""
        from repro.cluster import build_cluster
        from repro.execution import (
            ExecSpec, ProgramImage, ProgramRegistry, exec_program)

        registry = ProgramRegistry()

        def churner(ctx):
            for i in range(400):
                yield Compute(20_000)
                yield TouchPages([(i * 3) % 40, (i * 3 + 1) % 40])
            return 0

        registry.register(ProgramImage(
            name="paged", image_bytes=64 * 1024, space_bytes=128 * 1024,
            code_bytes=48 * 1024, body_factory=churner,
        ))
        cluster = build_cluster(n_workstations=3, registry=registry)
        holder = {}

        def session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("paged", where="ws1"))
            holder["pid"] = handle.pid

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=2_000_000)
        pid = holder["pid"]
        kernel = cluster.workstations[1].kernel
        lh = kernel.logical_hosts[pid.logical_host_id]
        pager = attach_pager(kernel, lh.spaces[0])
        return cluster, kernel, lh, pid, pager

    def test_vm_flush_migration_completes_and_program_survives(self):
        from repro.kernel.process import Priority as Prio
        from repro.migration.vm_flush import run_vm_flush_migration

        cluster, kernel, lh, pid, pager = self._setup()
        results = []

        def mgr_body():
            stats = yield from run_vm_flush_migration(kernel, lh)
            results.append(stats)

        kernel.create_process(
            cluster.pm("ws1").pcb.logical_host, mgr_body(),
            priority=Prio.MIGRATION, name="vm-mgr",
        )
        cluster.run(until_us=60_000_000)
        stats = results[0]
        assert stats.success, stats.error
        # The program faulted its pages back in at the destination and
        # kept running: double transfers happened.
        assert pager.faults > 0
        assert pager.double_transfers > 0

    def test_vm_flush_freeze_is_short(self):
        from repro.kernel.process import Priority as Prio
        from repro.migration.vm_flush import run_vm_flush_migration

        cluster, kernel, lh, pid, pager = self._setup()
        results = []

        def mgr_body():
            stats = yield from run_vm_flush_migration(kernel, lh)
            results.append(stats)

        kernel.create_process(
            cluster.pm("ws1").pcb.logical_host, mgr_body(),
            priority=Prio.MIGRATION, name="vm-mgr",
        )
        cluster.run(until_us=60_000_000)
        stats = results[0]
        assert stats.success
        # Freeze covers only the residual flush + kernel state copy:
        # far below the ~400 ms a full 128 KB copy would take.
        assert stats.freeze_us < 250_000

    def test_vm_flush_requires_pagers(self):
        from repro.kernel.process import Priority as Prio
        from repro.migration.vm_flush import run_vm_flush_migration

        cluster, kernel, lh, pid, pager = self._setup()
        lh.spaces[0].pager = None  # detach
        results = []

        def mgr_body():
            stats = yield from run_vm_flush_migration(kernel, lh)
            results.append(stats)

        kernel.create_process(
            cluster.pm("ws1").pcb.logical_host, mgr_body(),
            priority=Prio.MIGRATION, name="vm-mgr",
        )
        cluster.run(until_us=10_000_000)
        assert results and not results[0].success
        assert "not demand-paged" in results[0].error
