"""Migration edge cases: suspended victims, delaying victims, VM under
loss, and exit-during-migration."""

import pytest

from repro.cluster import build_cluster
from repro.cluster.monitor import ClusterMonitor
from repro.execution import ExecSpec, ProgramImage, exec_program, wait_program
from repro.ipc.messages import Message
from repro.kernel.process import Compute, Delay, Priority, Send
from repro.migration.migrateprog import migrate_program
from repro.net import BernoulliLoss
from repro.workloads import standard_registry


def make_cluster(n=3, seed=0, scale=0.3, **kwargs):
    return build_cluster(n_workstations=n, seed=seed,
                         registry=standard_registry(scale=scale), **kwargs)


def launch(cluster, program="longsim", where="ws1"):
    holder = {}

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec(program, where=where))
        holder["pid"] = handle.pid
        code = yield from wait_program(ctx, handle)
        holder["code"] = code

    cluster.spawn_session(cluster.workstations[0], session,
                          name=f"l-{program}")
    return holder


def run_until(cluster, predicate, limit_us=600_000_000):
    while not predicate() and cluster.sim.now < limit_us:
        if cluster.sim.peek() is None:
            break
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    return predicate()


def do_migrate(cluster, pid, **kw):
    replies = []

    def migrator(ctx):
        reply = yield from migrate_program(pid, **kw)
        replies.append(reply)

    cluster.spawn_session(cluster.workstations[0], migrator, name="mig")
    assert run_until(cluster, lambda: bool(replies))
    return replies[0]


class TestSuspendedVictim:
    def test_suspended_program_migrates_and_resumes_elsewhere(self):
        """Suspension state is kernel state: it must travel.  A program
        suspended before migration stays suspended at its new home and
        runs to completion once resumed there."""
        cluster = make_cluster()
        job = launch(cluster)
        assert run_until(cluster, lambda: "pid" in job)
        pid = job["pid"]
        control = []

        def suspender(ctx):
            from repro.kernel.ids import local_program_manager_group

            reply = yield Send(local_program_manager_group(pid.logical_host_id),
                               Message("suspend-program", pid=pid))
            control.append(reply.kind)

        cluster.spawn_session(cluster.workstations[0], suspender, name="susp")
        assert run_until(cluster, lambda: bool(control))
        reply = do_migrate(cluster, pid)
        assert reply["ok"], reply.get("error")
        monitor = ClusterMonitor(cluster)
        dest = monitor.host_of_lhid(pid.logical_host_id)
        pcb = cluster.station(dest).kernel.find_pcb(pid)
        assert pcb.suspended
        assert pcb.state_label() == "suspended"
        # Resume at the new home; the job completes.
        resumed = []

        def resumer(ctx):
            from repro.kernel.ids import local_program_manager_group

            r = yield Send(local_program_manager_group(pid.logical_host_id),
                           Message("resume-program", pid=pid))
            resumed.append(r.kind)

        cluster.spawn_session(cluster.workstations[0], resumer, name="res")
        cluster.run(until_us=600_000_000)
        assert resumed == ["ok"]
        assert job.get("code") == 0


class TestDelayingVictim:
    def test_sleep_deadline_survives_migration(self):
        """A program mid-Delay when frozen wakes at (approximately) its
        original deadline on the new host, not a reset timer."""
        cluster = make_cluster()
        woke = []

        def sleeper_body(ctx):
            yield Compute(100_000)
            intended = ctx.sim.now + 20_000_000
            yield Delay(20_000_000)
            woke.append((ctx.sim.now, intended))
            return 0

        cluster.registry.register(ProgramImage(
            name="sleeper", image_bytes=30 * 1024, space_bytes=64 * 1024,
            code_bytes=24 * 1024, body_factory=sleeper_body,
        ))
        job = launch(cluster, program="sleeper")
        assert run_until(cluster, lambda: "pid" in job)
        cluster.run(until_us=cluster.sim.now + 1_000_000)  # asleep now
        reply = do_migrate(cluster, job["pid"])
        assert reply["ok"], reply.get("error")
        cluster.run(until_us=600_000_000)
        assert woke, "sleeper never woke after migration"
        actual, intended = woke[0]
        # Woke within a second of the original deadline (not 20 s late).
        assert abs(actual - intended) < 1_000_000
        assert job.get("code") == 0


class TestVmFlushUnderLoss:
    def test_vm_migration_completes_with_lossy_wire(self):
        from repro.kernel.process import Priority as Prio
        from repro.migration.vm_flush import run_vm_flush_migration
        from repro.vm import attach_pager

        cluster = make_cluster(seed=29, scale=3.0, loss=BernoulliLoss(0.08))
        job = launch(cluster, program="optimizer")
        assert run_until(cluster, lambda: "pid" in job)
        cluster.run(until_us=cluster.sim.now + 500_000)
        kernel = cluster.workstations[1].kernel
        lh = kernel.logical_hosts[job["pid"].logical_host_id]
        for space in lh.spaces:
            attach_pager(kernel, space)
        results = []

        def mgr():
            stats = yield from run_vm_flush_migration(kernel, lh)
            results.append(stats)

        kernel.create_process(
            cluster.pm("ws1").pcb.logical_host, mgr(),
            priority=Prio.MIGRATION, name="vm-mgr",
        )
        assert run_until(cluster, lambda: bool(results))
        assert results[0].success, results[0].error
        cluster.run(until_us=900_000_000)
        assert job.get("code") == 0


class TestExitDuringMigration:
    def test_victim_exit_mid_precopy_aborts_cleanly(self):
        """A short program that finishes while its (large) address space
        is still being pre-copied: migration reports the exit, the shell
        is torn down, and the waiter still gets the exit code."""
        cluster = make_cluster()

        def quick_body(ctx):
            yield Compute(800_000)
            return 0

        cluster.registry.register(ProgramImage(
            name="quickie", image_bytes=600 * 1024, space_bytes=900 * 1024,
            code_bytes=500 * 1024, body_factory=quick_body,
        ))
        job = launch(cluster, program="quickie")
        assert run_until(cluster, lambda: "pid" in job)
        reply = do_migrate(cluster, job["pid"])
        assert not reply["ok"]
        assert "exited during migration" in reply["error"]
        cluster.run(until_us=600_000_000)
        assert job.get("code") == 0
        # No stray shells anywhere.
        for ws in cluster.workstations:
            assert all(not lh.is_shell
                       for lh in ws.kernel.logical_hosts.values())


class TestConcurrentMigrateRequests:
    def test_second_migrate_out_for_same_program_is_refused(self):
        """Two users ask to migrate the same program at once: the second
        request is refused cleanly instead of racing the first (double
        freeze / double transfer)."""
        import pytest as _pytest

        from repro.errors import MigrationError

        cluster = make_cluster()
        job = launch(cluster)
        assert run_until(cluster, lambda: "pid" in job)
        pid = job["pid"]
        outcomes = []

        def migrator(ctx, tag):
            try:
                reply = yield from migrate_program(pid)
                outcomes.append((tag, reply["ok"], reply.get("error")))
            except MigrationError as exc:
                outcomes.append((tag, False, str(exc)))

        cluster.spawn_session(cluster.workstations[0],
                              lambda ctx: migrator(ctx, "a"), name="m-a")
        cluster.spawn_session(cluster.workstations[0],
                              lambda ctx: migrator(ctx, "b"), name="m-b")
        assert run_until(cluster, lambda: len(outcomes) == 2)
        succeeded = [o for o in outcomes if o[1]]
        refused = [o for o in outcomes if not o[1]]
        assert len(succeeded) == 1
        assert len(refused) == 1
        assert "already in progress" in refused[0][2]
        cluster.run(until_us=600_000_000)
        assert job.get("code") == 0

    def test_program_can_migrate_again_after_first_completes(self):
        cluster = make_cluster(n=4)
        job = launch(cluster)
        assert run_until(cluster, lambda: "pid" in job)
        pid = job["pid"]
        first = do_migrate(cluster, pid)
        assert first["ok"]
        second = do_migrate(cluster, pid)
        assert second["ok"], second.get("error")
        cluster.run(until_us=600_000_000)
        assert job.get("code") == 0
