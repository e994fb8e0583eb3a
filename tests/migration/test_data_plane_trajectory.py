"""The data plane's trajectory, pinned in tier-1.

Three small runs of the CopyTo path -- a pre-copy migration, a VM-flush
migration of a demand-paged hog under a residency cap, and a lossy
CopyTo that recovers through a NAK -- each checked against constants
recorded before the per-frame hot path was tightened.  A host-side
speed-up of the copy engine, the segment or the event core must leave
every one of them unchanged: the number and order of simulated events
is the trajectory, not an implementation detail.  The two migrations
are also pinned with a strict invariant checker installed: the checker
only observes, so the same constants must hold with it.
"""

from __future__ import annotations

from repro.cluster import build_cluster
from repro.config import PAGE_SIZE
from repro.execution import ExecSpec, ProgramImage, ProgramRegistry, exec_program
from repro.faults import InvariantChecker
from repro.kernel import CopyToInstr, Delay
from repro.kernel.process import Compute, Priority, TouchPages
from repro.migration.manager import run_migration
from repro.migration.vm_flush import run_vm_flush_migration
from repro.net.loss import BernoulliLoss
from repro.vm.pager import attach_pager

from tests.helpers import make_cluster


def _hog(pages=96, hot=6, iterations=600):
    """A program that keeps rewriting a hot set and a sweeping cold page."""

    def body(ctx):
        for i in range(iterations):
            yield Compute(20_000)
            yield TouchPages(list(range(hot)) + [hot + (i * 7) % (pages - hot)])
        return 0

    return body


def _migrate(migrate, *, cap=None, seed=0, checked=False):
    """Start a hog on ws1, optionally cap it under a pager, migrate it to
    ws2 with ``migrate`` and return (cluster, stats).  ``checked``
    installs a strict invariant checker before the hog starts."""
    registry = ProgramRegistry()
    registry.register(ProgramImage(
        name="hog", image_bytes=64 * 1024, space_bytes=96 * PAGE_SIZE,
        code_bytes=48 * 1024, body_factory=_hog(),
    ))
    cluster = build_cluster(n_workstations=3, seed=seed, registry=registry)
    if checked:
        checker = InvariantChecker(cluster, strict=True).install(cluster.sim)
    holder = {}

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec("hog", where="ws1"))
        holder["pid"] = handle.pid

    cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=2_000_000)
    pid = holder["pid"]
    kernel = cluster.station("ws1").kernel
    lh = kernel.logical_hosts[pid.logical_host_id]
    if cap is not None:
        for space in lh.spaces:
            pager = attach_pager(kernel, space, max_resident=cap)
            for page in space.pages:
                pager.store[page.index] = page.version
            space.collect_dirty()
            pager.attach(space, resident=False)
        cluster.run(until_us=cluster.sim.now + 600_000)
    results = []

    def manager():
        stats = yield from migrate(kernel, lh, dest_pm=cluster.pm("ws2").pcb.pid)
        results.append(stats)

    kernel.create_process(cluster.pm("ws1").pcb.logical_host, manager(),
                          priority=Priority.MIGRATION, name="mgr")
    while not results:
        cluster.sim.run(until_us=cluster.sim.now + 50_000)
    # Let the moved hog run on: under VM-flush it demand-reads its
    # pages back from the file server.
    cluster.run(until_us=cluster.sim.now + 1_000_000)
    stats = results[0]
    assert stats.success, stats.error
    if checked:
        assert checker.events_checked > 0
    return cluster, stats


def _trajectory(cluster, stats):
    return dict(
        events=cluster.sim.event_count,
        packets=cluster.net.packets_sent,
        bytes=cluster.net.bytes_sent,
        rounds=[r.pages for r in stats.rounds],
        freeze_us=stats.freeze_us,
        residual_pages=stats.residual_pages,
    )


def test_precopy_migration_trajectory():
    for checked in (False, True):
        cluster, stats = _migrate(run_migration, checked=checked)
        assert _trajectory(cluster, stats) == dict(
            events=1101, packets=215, bytes=367424, rounds=[96, 34],
            freeze_us=131741, residual_pages=16,
        ), f"checked={checked}"


def test_vm_flush_migration_of_a_capped_hog_trajectory():
    for checked in (False, True):
        cluster, stats = _migrate(run_vm_flush_migration, cap=16,
                                  checked=checked)
        assert _trajectory(cluster, stats) == dict(
            events=583, packets=63, bytes=68032, rounds=[16],
            freeze_us=135661, residual_pages=14,
        ), f"checked={checked}"


class _Tally(BernoulliLoss):
    """Bernoulli loss that also counts the frames it is asked about."""

    def __init__(self, rate):
        super().__init__(rate)
        self.kinds = {}

    def drops(self, sim, packet):
        self.kinds[packet.kind] = self.kinds.get(packet.kind, 0) + 1
        return super().drops(sim, packet)


#: Deliveries the loss model was asked about, by kind: one of the 64
#: pages is lost, NAKed and re-sent, so the run ends twice.
KINDS = {"ghq": 1, "ghq-reply": 1, "copy-data": 65, "copy-end": 2,
         "copy-nak": 1, "copy-ack": 1}


def test_lossy_copyto_recovers_through_a_nak_trajectory():
    loss = _Tally(0.05)
    cluster = make_cluster(2, seed=5, loss=loss)
    a, b = cluster.stations
    n_pages = 64

    def idle():
        yield Delay(600_000_000)

    _, dst_pcb = cluster.spawn_program(
        b, idle(), space_bytes=PAGE_SIZE * n_pages, name="dst")
    src_lh = a.kernel.create_logical_host()
    src_space = a.kernel.allocate_space(src_lh, PAGE_SIZE * n_pages, name="src")
    src_space.load_image()
    took = []

    def copier():
        start = cluster.sim.now
        yield CopyToInstr(dst_pcb.pid, src_space.pages)
        took.append(cluster.sim.now - start)

    cluster.spawn_program(a, copier(), lh=src_lh, name="copier")
    cluster.run(until_us=60_000_000)
    assert dst_pcb.space.identical_to(src_space)
    assert loss.kinds.get("copy-nak", 0) >= 1, "no NAK: the case tests nothing"
    assert dict(
        events=cluster.sim.event_count,
        packets=cluster.net.packets_sent,
        bytes=cluster.net.bytes_sent,
        dropped=cluster.net.packets_dropped,
        took_us=took,
        kinds=loss.kinds,
    ) == dict(
        events=219, packets=71, bytes=133504, dropped=1, took_us=[389472],
        kinds=KINDS,
    )
