"""Crashed programs release their waiters (exit code -1) and are
recorded as faults -- nobody hangs on a dead rendezvous."""

import pytest

from repro.cluster import build_cluster
from repro.execution import (
    ExecSpec,
    ProgramImage,
    ProgramRegistry,
    exec_program,
    run_program,
    wait_program,
)
from repro.kernel.process import Compute
from repro.net import BurstLoss
from repro.workloads import standard_registry


def test_crashed_program_releases_waiter():
    registry = ProgramRegistry()

    def buggy(ctx):
        yield Compute(200_000)
        raise ValueError("segfault, 1985-style")

    registry.register(ProgramImage(
        name="buggy", image_bytes=20 * 1024, space_bytes=64 * 1024,
        code_bytes=16 * 1024, body_factory=buggy,
    ))
    cluster = build_cluster(n_workstations=2, registry=registry)
    cluster.sim.strict = False
    outcome = {}

    def session(ctx):
        code = yield from run_program(ctx, ExecSpec("buggy", where="ws1"))
        outcome["code"] = code

    cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=60_000_000)
    assert outcome.get("code") == -1
    assert cluster.workstations[1].kernel.faulted


def test_crash_is_not_confused_with_clean_exit():
    registry = ProgramRegistry()

    def fine(ctx):
        yield Compute(100_000)
        return 0

    registry.register(ProgramImage(
        name="fine", image_bytes=20 * 1024, space_bytes=64 * 1024,
        code_bytes=16 * 1024, body_factory=fine,
    ))
    cluster = build_cluster(n_workstations=2, registry=registry)
    outcome = {}

    def session(ctx):
        code = yield from run_program(ctx, ExecSpec("fine", where="ws1"))
        outcome["code"] = code

    cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=60_000_000)
    assert outcome.get("code") == 0
    assert not cluster.workstations[1].kernel.faulted


def test_migration_under_burst_loss():
    """Correlated loss bursts (a glitching segment) instead of uniform
    loss: the migration still completes and the job still finishes."""
    from repro.migration.migrateprog import migrate_program

    cluster = build_cluster(
        n_workstations=3, seed=41, registry=standard_registry(scale=0.5),
        loss=BurstLoss(p_good_to_bad=0.002, p_bad_to_good=0.25),
    )
    job = {}

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec("longsim", where="ws1"))
        job["pid"] = handle.pid
        code = yield from wait_program(ctx, handle)
        job["code"] = code

    cluster.spawn_session(cluster.workstations[0], session)
    while "pid" not in job and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    replies = []

    def migrator(ctx):
        reply = yield from migrate_program(job["pid"])
        replies.append(reply)

    cluster.spawn_session(cluster.workstations[0], migrator, name="mig")
    while not replies and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    assert replies[0]["ok"], replies[0].get("error")
    cluster.run(until_us=900_000_000)
    assert job.get("code") == 0
    assert cluster.net.packets_dropped > 0


def test_file_server_failover():
    """With two file servers, the death of the boot-configured one only
    delays the next program launch: the program manager falls back to
    the file-server group and adopts the survivor."""
    cluster = build_cluster(n_workstations=2, n_file_servers=2,
                            registry=standard_registry(scale=0.1), seed=9)
    outcome = {}

    def session(ctx):
        code = yield from run_program(ctx, ExecSpec("tex", where="ws1"))
        outcome["first"] = code
        outcome["crash"] = True
        code = yield from run_program(ctx, ExecSpec("tex", where="ws1"))
        outcome["second"] = code

    cluster.spawn_session(cluster.workstations[0], session)
    while "crash" not in outcome and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    # Kill the primary file server machine.
    cluster.server_machines[0].crash()
    cluster.sim.strict = False
    cluster.run(until_us=900_000_000)
    assert outcome.get("first") == 0
    assert outcome.get("second") == 0
    survivor = cluster.file_servers[1].pcb.pid
    assert cluster.workstations[1].kernel.file_server_pid == survivor
