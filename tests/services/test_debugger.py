"""Tests for network-transparent debugging (paper §6).

"Even the V debugger can debug local and remote programs with no
change" -- including, here, a program that migrates mid-session.
"""

import pytest

from repro.cluster import build_cluster
from repro.execution import ExecSpec, exec_program
from repro.migration.migrateprog import migrate_program
from repro.services.debugger import DebugError, DebugSession
from repro.workloads import standard_registry


def make_world(where="ws1"):
    cluster = build_cluster(n_workstations=3, seed=6,
                            registry=standard_registry(scale=0.5))
    holder = {}

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec("longsim", where=where))
        holder["pid"] = handle.pid

    cluster.spawn_session(cluster.workstations[0], session)
    while "pid" not in holder and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    return cluster, holder["pid"]


def run_debugger(cluster, body_factory):
    """Run a debugger body as a session on ws0."""
    out = {}

    def wrapper(ctx):
        yield from body_factory(ctx, out)

    cluster.spawn_session(cluster.workstations[0], wrapper, name="debugger")
    return out


def test_attach_freezes_progress_and_detach_resumes():
    cluster, target = make_world()

    def debugger(ctx, out):
        session = DebugSession(target)
        yield from session.attach()
        before = yield from session.inspect()
        from repro.kernel.process import Delay

        yield Delay(3_000_000)
        after = yield from session.inspect()
        out["cpu_delta"] = after.cpu_used_us - before.cpu_used_us
        out["state"] = after.state
        yield from session.detach()
        yield Delay(2_000_000)
        resumed = yield from session.inspect()
        out["resumed_delta"] = resumed.cpu_used_us - after.cpu_used_us

    out = run_debugger(cluster, debugger)
    cluster.run(until_us=60_000_000)
    assert out["cpu_delta"] == 0            # attached: no progress
    assert out["state"] == "suspended"
    assert out["resumed_delta"] > 1_000_000  # detached: running again


def test_memory_inspection_via_copyfrom():
    cluster, target = make_world()
    cluster.run(until_us=cluster.sim.now + 2_000_000)

    def debugger(ctx, out):
        session = DebugSession(target)
        yield from session.attach()
        pages = yield from session.read_pages([0, 1, 2, 3])
        out["versions"] = [p.version for p in pages]
        yield from session.detach()

    out = run_debugger(cluster, debugger)
    cluster.run(until_us=30_000_000)
    # The image pages were written at load: nonzero versions visible.
    assert len(out["versions"]) == 4
    assert all(v >= 1 for v in out["versions"])


def test_same_session_works_across_a_migration():
    """Debug, migrate the target, keep debugging: the session's handle is
    the pid, and the pid survives (the paper's network-transparency claim
    taken to its logical conclusion)."""
    cluster, target = make_world()

    def debugger(ctx, out):
        from repro.kernel.process import Delay

        session = DebugSession(target)
        snap1 = yield from session.inspect()
        out["before"] = snap1.name
        # ... migration happens elsewhere during this delay ...
        while "migrated" not in out:
            yield Delay(200_000)
        snap2 = yield from session.inspect()
        out["after"] = snap2.name
        yield from session.attach()
        held = yield from session.inspect()
        out["held_state"] = held.state
        yield from session.detach()

    out = run_debugger(cluster, debugger)
    replies = []

    def migrator(ctx):
        reply = yield from migrate_program(target)
        replies.append(reply)
        out["migrated"] = True

    cluster.spawn_session(cluster.workstations[0], migrator, name="mig")
    cluster.run(until_us=120_000_000)
    assert replies and replies[0]["ok"]
    assert out["before"] == out["after"] == "longsim"
    assert out["held_state"] == "suspended"


def test_debug_error_on_dead_target():
    from repro.kernel.ids import Pid

    cluster, target = make_world()
    ghost = Pid(target.logical_host_id, 0x55)
    caught = []

    def debugger(ctx, out):
        session = DebugSession(ghost)
        try:
            yield from session.inspect()
        except DebugError as exc:
            caught.append(str(exc))

    run_debugger(cluster, debugger)
    cluster.run(until_us=30_000_000)
    assert caught and "no such process" in caught[0]


def test_kill_via_debugger():
    cluster, target = make_world()
    done = []

    def debugger(ctx, out):
        session = DebugSession(target)
        yield from session.kill()
        done.append(True)

    run_debugger(cluster, debugger)
    cluster.run(until_us=30_000_000)
    assert done
    assert cluster.workstations[1].kernel.find_pcb(target) is None
