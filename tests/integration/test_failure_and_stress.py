"""Stress and failure-injection integration tests.

These go beyond the paper's own evaluation: chained and concurrent
migrations, migration under packet loss, and kernel-server operations
deferred across a freeze (paper §3.1.3's defer-until-unfrozen rule).
"""

import pytest

from repro.cluster import build_cluster
from repro.cluster.monitor import ClusterMonitor
from repro.execution import ExecSpec, exec_program, wait_program
from repro.ipc.messages import Message
from repro.kernel.ids import local_kernel_server_group
from repro.kernel.process import Delay, Send
from repro.migration.migrateprog import migrate_program
from repro.net import BernoulliLoss
from repro.workloads import standard_registry


def make_cluster(n=4, seed=0, scale=0.3, **kwargs):
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
                          name=f"launch-{program}-{where}")
    return holder


def run_until(cluster, predicate, limit_us=600_000_000):
    while not predicate() and cluster.sim.now < limit_us:
        if cluster.sim.peek() is None:
            break
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    return predicate()


class TestChainedMigrations:
    def test_migrate_twice_and_still_reachable(self):
        """A -> B -> C: the logical host stays addressable through two
        rebinds and the program completes."""
        cluster = make_cluster()
        job = launch(cluster, where="ws1")
        assert run_until(cluster, lambda: "pid" in job)
        pid = job["pid"]
        monitor = ClusterMonitor(cluster)
        hops = []

        def migrator(ctx):
            for _ in range(2):
                reply = yield from migrate_program(pid)
                hops.append(reply)
                yield Delay(1_000_000)

        cluster.spawn_session(cluster.workstations[0], migrator, name="mig")
        assert run_until(cluster, lambda: len(hops) == 2)
        assert all(reply["ok"] for reply in hops)
        assert hops[0]["dest"] != hops[1]["dest"]
        cluster.run(until_us=600_000_000)
        assert job.get("code") == 0

    def test_three_hop_chain(self):
        cluster = make_cluster(n=5, scale=0.5)
        job = launch(cluster, where="ws1")
        assert run_until(cluster, lambda: "pid" in job)
        pid = job["pid"]
        hops = []

        def migrator(ctx):
            for _ in range(3):
                reply = yield from migrate_program(pid)
                hops.append(reply)
                yield Delay(500_000)

        cluster.spawn_session(cluster.workstations[0], migrator, name="mig")
        assert run_until(cluster, lambda: len(hops) == 3)
        assert all(reply["ok"] for reply in hops), [h.get("error") for h in hops]
        cluster.run(until_us=600_000_000)
        assert job.get("code") == 0


class TestConcurrentMigrations:
    def test_two_programs_leave_one_host_simultaneously(self):
        cluster = make_cluster(n=5)
        jobs = [launch(cluster, where="ws1"), launch(cluster, where="ws1")]
        assert run_until(cluster, lambda: all("pid" in j for j in jobs))
        replies = []

        def migrator(ctx, pid):
            reply = yield from migrate_program(pid)
            replies.append(reply)

        for i, job in enumerate(jobs):
            cluster.spawn_session(
                cluster.workstations[0],
                lambda ctx, p=job["pid"]: migrator(ctx, p),
                name=f"mig{i}",
            )
        assert run_until(cluster, lambda: len(replies) == 2)
        assert all(reply["ok"] for reply in replies), [r.get("error") for r in replies]
        cluster.run(until_us=600_000_000)
        assert all(job.get("code") == 0 for job in jobs)

    def test_crossing_migrations_between_two_hosts(self):
        """ws1's job moves out while ws2's job moves out: no deadlock,
        both succeed."""
        cluster = make_cluster(n=5)
        job1 = launch(cluster, where="ws1")
        job2 = launch(cluster, where="ws2")
        assert run_until(cluster, lambda: "pid" in job1 and "pid" in job2)
        replies = []

        def migrator(ctx, pid):
            reply = yield from migrate_program(pid)
            replies.append(reply)

        cluster.spawn_session(cluster.workstations[0],
                              lambda ctx: migrator(ctx, job1["pid"]), name="m1")
        cluster.spawn_session(cluster.workstations[0],
                              lambda ctx: migrator(ctx, job2["pid"]), name="m2")
        assert run_until(cluster, lambda: len(replies) == 2)
        assert all(reply["ok"] for reply in replies)


class TestMigrationUnderLoss:
    @pytest.mark.parametrize("loss_rate", [0.05, 0.15])
    def test_migration_completes_despite_loss(self, loss_rate):
        cluster = make_cluster(n=3, seed=17, loss=BernoulliLoss(loss_rate))
        job = launch(cluster, where="ws1")
        assert run_until(cluster, lambda: "pid" in job)
        replies = []

        def migrator(ctx):
            reply = yield from migrate_program(job["pid"])
            replies.append(reply)

        cluster.spawn_session(cluster.workstations[0], migrator, name="mig")
        assert run_until(cluster, lambda: bool(replies))
        assert replies[0]["ok"], replies[0].get("error")
        cluster.run(until_us=900_000_000)
        assert job.get("code") == 0

    def test_migrated_space_is_complete_under_loss(self):
        """Packet loss during pre-copy must not leave holes in the moved
        address space (the distinct-page completeness check)."""
        cluster = make_cluster(n=3, seed=23, scale=3.0, loss=BernoulliLoss(0.1))
        job = launch(cluster, program="parser", where="ws1")
        assert run_until(cluster, lambda: "pid" in job)
        pid = job["pid"]
        src_space = cluster.workstations[1].kernel.find_pcb(pid).space
        replies = []

        def migrator(ctx):
            reply = yield from migrate_program(pid)
            replies.append(reply)

        cluster.spawn_session(cluster.workstations[0], migrator, name="mig")
        assert run_until(cluster, lambda: bool(replies))
        assert replies[0]["ok"], replies[0].get("error")
        monitor = ClusterMonitor(cluster)
        dest = monitor.host_of_lhid(pid.logical_host_id)
        dst_pcb = cluster.station(dest).kernel.find_pcb(pid)
        # Every page the source had written by the freeze is present (the
        # program has since written more at the destination, never less).
        for src_page, dst_page in zip(src_space.pages, dst_pcb.space.pages):
            assert dst_page.version >= src_page.version


class TestFreezeDeferredOps:
    def test_suspend_during_freeze_applies_after_unfreeze(self):
        """Paper §3.1.3: kernel-server requests that modify a frozen
        logical host are deferred until it is unfrozen."""
        cluster = make_cluster(n=2)
        job = launch(cluster, where="ws1")
        assert run_until(cluster, lambda: "pid" in job)
        pid = job["pid"]
        kernel = cluster.workstations[1].kernel
        lh = kernel.logical_hosts[pid.logical_host_id]
        kernel.freeze_logical_host(lh)
        done = []

        def suspender(ctx):
            reply = yield Send(
                local_kernel_server_group(pid.logical_host_id),
                Message("suspend", pid=pid),
            )
            done.append((ctx.sim.now, reply.kind))

        cluster.spawn_session(cluster.workstations[0], suspender, name="susp")
        cluster.run(until_us=cluster.sim.now + 3_000_000)
        assert done == []  # deferred, not answered, not failed
        unfroze_at = cluster.sim.now
        kernel.unfreeze_logical_host(lh)
        from repro.kernel.kernel_server import reprocess_deferred

        reprocess_deferred(kernel, lh)
        assert run_until(cluster, lambda: bool(done))
        assert done[0][1] == "ok"
        assert done[0][0] >= unfroze_at
        pcb = kernel.find_pcb(pid)
        assert pcb.suspended

    def test_query_ops_work_on_frozen_host(self):
        """Reads don't modify the logical host: they answer even frozen."""
        cluster = make_cluster(n=2)
        job = launch(cluster, where="ws1")
        assert run_until(cluster, lambda: "pid" in job)
        pid = job["pid"]
        kernel = cluster.workstations[1].kernel
        kernel.freeze_logical_host(kernel.logical_hosts[pid.logical_host_id])
        got = []

        def querier(ctx):
            reply = yield Send(
                local_kernel_server_group(pid.logical_host_id),
                Message("query-process", pid=pid),
            )
            got.append(reply)

        cluster.spawn_session(cluster.workstations[0], querier, name="q")
        assert run_until(cluster, lambda: bool(got), limit_us=30_000_000)
        assert got[0]["frozen"] is True


class TestGroupMembershipMigration:
    def test_group_member_still_reachable_after_migration(self):
        """A program that joined a global group keeps receiving group
        sends after migrating (membership travels in the bundle)."""
        from repro.execution import ProgramImage
        from repro.kernel.ids import Pid
        from repro.kernel.process import Receive, Reply

        group = Pid(0xFFFF, 0x0060 | 0x8000)
        cluster = make_cluster(n=3)

        def member_body(ctx):
            while True:
                sender, msg = yield Receive()
                if msg.kind == "stop":
                    yield Reply(sender, Message("stopped"))
                    return 0
                yield Reply(sender, msg.replying(served=True))

        cluster.registry.register(ProgramImage(
            name="groupsvc", image_bytes=30 * 1024, space_bytes=64 * 1024,
            code_bytes=24 * 1024, body_factory=member_body,
        ))
        job = launch(cluster, program="groupsvc", where="ws1")
        assert run_until(cluster, lambda: "pid" in job)
        pid = job["pid"]
        cluster.workstations[1].kernel.groups.join(group, pid)

        replies = []

        def client(ctx):
            reply = yield Send(group, Message("work"))
            replies.append(reply)
            migrated = yield from migrate_program(pid)
            replies.append(migrated)
            reply = yield Send(group, Message("work"))
            replies.append(reply)

        cluster.spawn_session(cluster.workstations[0], client, name="client")
        assert run_until(cluster, lambda: len(replies) == 3)
        assert replies[0]["served"]
        assert replies[1]["ok"]
        assert replies[2]["served"]
