"""The one §3.1 procedure, checked for each of its three copy methods.

Pre-copy, VM flush and freeze-and-copy share one offer -> shell ->
freeze -> install -> commit skeleton
(:class:`repro.migration.manager.Migration`) and differ only in how
pages move.  These tests run every method through the steps the
skeleton owes them all alike: an abort after the shell exists tears the
shell down, a logical host that cannot move becomes ``stats.error``,
the commit is noted for the invariant checker, and the span tree
accounts for the freeze.  The last test keeps the protocol in one place.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.migration
from repro.cluster import build_cluster
from repro.config import PAGE_SIZE
from repro.errors import InvariantViolation
from repro.execution import ExecSpec, ProgramImage, ProgramRegistry, exec_program
from repro.faults import InvariantChecker
from repro.kernel import AddressSpace, Pcb, kernel_server
from repro.kernel.ids import Pid
from repro.kernel.process import Compute, Delay, Priority, TouchPages
from repro.migration.manager import run_migration
from repro.migration.simple import run_freeze_and_copy
from repro.migration.vm_flush import run_vm_flush_migration
from repro.obs import phase_breakdown
from repro.vm.pager import attach_pager

METHODS = {
    "precopy": run_migration,
    "vm-flush": run_vm_flush_migration,
    "freeze-and-copy": run_freeze_and_copy,
}

#: The ``migrate`` root's children: the live copy phase (if any),
#: ``freeze``, ``rebind``.
PHASES = {
    "precopy": ["precopy", "freeze", "rebind"],
    "vm-flush": ["flush", "freeze", "rebind"],
    "freeze-and-copy": ["freeze", "rebind"],
}


def _hog(ctx):
    for i in range(600):
        yield Compute(20_000)
        yield TouchPages([0, 1, 2, 3, 4, 5, 6 + (i * 7) % 90])
    return 0


def _hog_on_ws1(method, checked=False, traced=False):
    """A 96-page hog running on ws1 of a three-host cluster, its space
    demand-paged (16 pages resident) when ``method`` is VM flush.
    Returns (cluster, kernel of ws1, the hog's logical host, checker)."""
    registry = ProgramRegistry()
    registry.register(ProgramImage(
        name="hog", image_bytes=64 * 1024, space_bytes=96 * PAGE_SIZE,
        code_bytes=48 * 1024, body_factory=_hog,
    ))
    cluster = build_cluster(n_workstations=3, seed=0, registry=registry)
    checker = None
    if checked:
        checker = InvariantChecker(cluster, strict=True).install(cluster.sim)
    if traced:
        cluster.sim.trace.enable("*")
    pids = []

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec("hog", where="ws1"))
        pids.append(handle.pid)

    cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=2_000_000)
    kernel = cluster.station("ws1").kernel
    lh = kernel.logical_hosts[pids[0].logical_host_id]
    if method == "vm-flush":
        for space in lh.spaces:
            pager = attach_pager(kernel, space, max_resident=16)
            for page in space.pages:
                pager.store[page.index] = page.version
            space.collect_dirty()
            pager.attach(space, resident=False)
        cluster.run(until_us=cluster.sim.now + 600_000)
    return cluster, kernel, lh, checker


def _migrate_to_ws2(cluster, kernel, lh, method):
    """Run ``method`` on lh from a manager process; its stats, or None if
    it has not returned within 30 simulated seconds."""
    results = []

    def manager():
        migrate = METHODS[method]
        results.append((yield from migrate(
            kernel, lh, dest_pm=cluster.pm("ws2").pcb.pid)))

    kernel.create_process(cluster.pm("ws1").pcb.logical_host, manager(),
                          priority=Priority.MIGRATION, name="mgr")
    deadline = cluster.sim.now + 30_000_000
    while not results and cluster.sim.now < deadline:
        cluster.sim.run(until_us=cluster.sim.now + 50_000)
    return results[0] if results else None


@pytest.mark.parametrize("method", METHODS)
def test_exit_after_shell_creation_destroys_the_shell(method, monkeypatch):
    # The hog dies the moment ws2 builds its shell, so the source finds
    # it gone once the shell exists; nothing times a shell out, so the
    # source must destroy it.
    cluster, kernel, lh, _ = _hog_on_ws1(method)
    create_shell = kernel_server._HANDLERS["create-shell"]

    def create_shell_and_kill_the_hog(dest_kernel, sender, msg):
        reply = create_shell(dest_kernel, sender, msg)
        for pcb in lh.live_processes():
            kernel.destroy_process(pcb)
        return reply

    monkeypatch.setitem(kernel_server._HANDLERS, "create-shell",
                        create_shell_and_kill_the_hog)
    stats = _migrate_to_ws2(cluster, kernel, lh, method)
    assert stats.error == "program exited during migration"
    cluster.run(until_us=cluster.sim.now + 1_000_000)
    dest = cluster.station("ws2").kernel
    assert [h for h in dest.logical_hosts.values() if h.is_shell] == []


@pytest.mark.parametrize("method", METHODS)
def test_unmigratable_host_is_a_stats_error(method):
    # A process whose address space lies outside its logical host cannot
    # be described to the destination: the manager reports that, the
    # program keeps running where it is, and no message is sent.
    cluster, kernel, lh, _ = _hog_on_ws1(method)

    def parked():
        yield Delay(10**9)

    index = lh.allocate_index()
    lh.processes[index] = Pcb(Pid(lh.lhid, index), lh,
                              AddressSpace(PAGE_SIZE, name="foreign"),
                              parked(), name="alien")
    sent = cluster.net.packets_sent
    stats = _migrate_to_ws2(cluster, kernel, lh, method)
    assert stats is not None and not stats.success
    assert "outside its logical host" in stats.error
    assert cluster.net.packets_sent == sent
    assert kernel.logical_hosts.get(lh.lhid) is lh and not lh.frozen


@pytest.mark.parametrize("method", METHODS)
def test_every_method_notes_its_commit_and_spans_its_freeze(method):
    cluster, kernel, lh, checker = _hog_on_ws1(method, checked=True,
                                               traced=True)
    stats = _migrate_to_ws2(cluster, kernel, lh, method)
    assert stats.success, stats.error
    trace = cluster.sim.trace
    (root,) = trace.find_spans("migration", "migrate")
    assert root.data["method"] == method
    assert [s.name for s in trace.children_of(root.span_id)] == PHASES[method]
    (freeze,) = trace.find_spans("migration", "freeze")
    assert freeze.duration_us == stats.freeze_us
    assert len(trace.children_of(freeze.span_id)) == stats.n_spaces
    phases = phase_breakdown(trace, root.span_id)["phases"]
    assert sum(p["us"] for p in phases) == root.duration_us
    # The commit was noted: a request reaching ws1 for the moved logical
    # host after the grace window is a residual dependency.
    late = cluster.sim.now + checker.grace_us + 1
    with pytest.raises(InvariantViolation, match="no-residual-dependency"):
        checker.note_stale_request(lh.lhid, "ws1", late)


#: What only the migration procedure sends or does: the three protocol
#: requests, and the §3.1.3 rollback's re-adoption and unfreeze.
PROCEDURE_MARKS = {"offer-lh", "create-shell", "install-state",
                   "adopt_from_migration", "unfreeze_logical_host"}


class _Sites(ast.NodeVisitor):
    """Where in one module each procedure mark appears, by the
    qualified name of the innermost enclosing function."""

    def __init__(self, module):
        self.scope = [module]
        self.sites = {}

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _enter

    def _mark(self, mark):
        if mark in PROCEDURE_MARKS:
            self.sites.setdefault(mark, set()).add(".".join(self.scope))

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self._mark(node.value)

    def visit_Attribute(self, node):
        self._mark(node.attr)
        self.generic_visit(node)


def test_the_procedure_is_written_once():
    # The kernel server and program manager handle these requests; under
    # repro.migration only one function may send them or roll back.
    sites = {}
    for path in sorted(Path(repro.migration.__file__).parent.glob("*.py")):
        visitor = _Sites(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        for mark, where in visitor.sites.items():
            sites.setdefault(mark, set()).update(where)
    assert set(sites) == PROCEDURE_MARKS
    assert set().union(*sites.values()) == {"manager.Migration._attempt"}
