"""End-to-end tests of preemptable migration (paper §3)."""

import pytest

from repro.cluster import build_cluster
from repro.cluster.monitor import ClusterMonitor
from repro.errors import MigrationError
from repro.execution import (
    ExecSpec,
    ProgramImage,
    ProgramRegistry,
    exec_program,
    wait_program,
)
from repro.ipc.messages import Message
from repro.kernel.process import Compute, Delay, Priority, Touch, TouchPages, Send, Receive, Reply
from repro.migration.migrateprog import migrate_all_remote, migrate_program


def churner_program(iterations=200, pages_per_burst=2, compute_us=50_000, space_pages=48):
    """A program that alternates compute with dirtying a few pages --
    the canonical migration victim."""

    def body(ctx):
        total = 0
        for i in range(iterations):
            yield Compute(compute_us)
            first = (i * pages_per_burst) % (space_pages - pages_per_burst)
            yield TouchPages(range(first, first + pages_per_burst))
            total += 1
        return 0

    return body


def make_cluster(n=3, seed=0, **kwargs):
    registry = ProgramRegistry()
    registry.register(ProgramImage(
        name="churner", image_bytes=64 * 1024, space_bytes=128 * 1024,
        code_bytes=48 * 1024, body_factory=churner_program(),
    ))
    registry.register(ProgramImage(
        name="bigjob", image_bytes=256 * 1024, space_bytes=1024 * 1024,
        code_bytes=200 * 1024,
        body_factory=churner_program(iterations=2000, space_pages=500),
    ))
    return build_cluster(n_workstations=n, seed=seed, registry=registry, **kwargs)


def start_remote_program(cluster, program="churner", where="ws1"):
    """Session on ws0 starts a program remotely; returns holders that
    fill in as the simulation runs."""
    state = {}

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec(program, where=where))
        state["pid"] = handle.pid
        state["origin_pm"] = handle.origin_pm
        code = yield from wait_program(ctx, handle)
        state["exit_code"] = code

    cluster.spawn_session(cluster.workstations[0], session)
    return state


class TestBasicMigration:
    def test_program_migrates_and_completes(self):
        cluster = make_cluster()
        state = start_remote_program(cluster)
        cluster.run(until_us=2_000_000)  # program is running on ws1
        pid = state["pid"]
        results = []

        def migrator(ctx):
            reply = yield from migrate_program(pid)
            results.append(reply)

        cluster.spawn_session(cluster.workstations[0], migrator, name="migrator")
        cluster.run(until_us=60_000_000)
        assert results and results[0]["ok"], results
        assert results[0]["dest"] in {"ws0", "ws2"}  # any other idle host
        # The program still ran to completion and the waiter got its code.
        assert state.get("exit_code") == 0

    def test_pid_unchanged_after_migration(self):
        cluster = make_cluster()
        state = start_remote_program(cluster)
        cluster.run(until_us=2_000_000)
        pid = state["pid"]
        results = []

        def migrator(ctx):
            reply = yield from migrate_program(pid)
            results.append(reply)

        cluster.spawn_session(cluster.workstations[0], migrator, name="migrator")
        # Inspect the moment the migration completes, while the program
        # is still running at its new home.
        while not results and cluster.sim.peek() is not None:
            cluster.sim.run(until_us=cluster.sim.now + 50_000)
        assert results[0]["ok"]
        # Same pid, now resolving on the destination host.
        monitor = ClusterMonitor(cluster)
        dest = monitor.host_of_lhid(pid.logical_host_id)
        assert dest in {"ws0", "ws2"}
        pcb = cluster.station(dest).kernel.find_pcb(pid)
        assert pcb is not None
        assert pcb.pid == pid
        assert cluster.workstations[1].kernel.find_pcb(pid) is None

    def test_address_space_is_identical_after_migration(self):
        cluster = make_cluster()
        state = start_remote_program(cluster, program="churner")
        cluster.run(until_us=2_000_000)
        pid = state["pid"]
        src_kernel = cluster.workstations[1].kernel
        src_space = src_kernel.find_pcb(pid).space
        results = []

        def migrator(ctx):
            reply = yield from migrate_program(pid)
            results.append(reply)

        cluster.spawn_session(cluster.workstations[0], migrator, name="migrator")
        # Run until the migration completes, then stop the world at once.
        while not results and cluster.sim.peek() is not None:
            cluster.sim.run(until_us=cluster.sim.now + 50_000)
        assert results and results[0]["ok"]
        monitor = ClusterMonitor(cluster)
        dest = monitor.host_of_lhid(pid.logical_host_id)
        dst_space = cluster.station(dest).kernel.find_pcb(pid).space
        # Versions the destination holds are never *ahead* of the source,
        # and every page version is at least the source's at freeze time.
        # Since the program resumed at the destination, its versions can
        # only have grown; sizes must match exactly.
        assert dst_space.size_bytes == src_space.size_bytes

    def test_migration_stats_show_precopy_behaviour(self):
        cluster = make_cluster()
        state = start_remote_program(cluster, program="churner")
        cluster.run(until_us=2_000_000)
        pid = state["pid"]
        results = []

        def migrator(ctx):
            reply = yield from migrate_program(pid)
            results.append(reply)

        cluster.spawn_session(cluster.workstations[0], migrator, name="migrator")
        cluster.run(until_us=30_000_000)
        stats = results[0]["stats"]
        assert stats.success
        # Round 0 copies the whole space; later rounds copy fewer pages.
        assert stats.precopy_rounds >= 1
        assert stats.rounds[0].pages == 64  # 128 KB / 2 KB
        if stats.precopy_rounds > 1:
            assert stats.rounds[1].pages < stats.rounds[0].pages
        # Freeze time is far below the full-copy time (~400 ms for 128 KB).
        assert stats.freeze_us < 200_000
        assert stats.residual_bytes <= 70 * 1024

    def test_migrating_whole_logical_host_moves_subprocesses(self):
        cluster = make_cluster()
        pids = {}

        def parent_body(ctx):
            # Spawn a subprogram in the same logical host, then work.
            handle = yield from exec_program(
                ctx, ExecSpec("churner", lhid=ctx.self_pid.logical_host_id)
            )
            pids["child"] = handle.pid
            yield Compute(10_000_000)
            return 0

        cluster.registry.register(ProgramImage(
            name="parent", image_bytes=64 * 1024, space_bytes=128 * 1024,
            code_bytes=48 * 1024, body_factory=parent_body,
        ))
        state = start_remote_program(cluster, program="parent", where="ws1")
        cluster.run(until_us=3_000_000)
        assert "child" in pids
        results = []

        def migrator(ctx):
            reply = yield from migrate_program(state["pid"])
            results.append(reply)

        cluster.spawn_session(cluster.workstations[0], migrator, name="migrator")
        while not results and cluster.sim.peek() is not None:
            cluster.sim.run(until_us=cluster.sim.now + 50_000)
        assert results[0]["ok"]
        monitor = ClusterMonitor(cluster)
        dest = monitor.host_of_lhid(state["pid"].logical_host_id)
        dest_kernel = cluster.station(dest).kernel
        assert dest_kernel.find_pcb(state["pid"]) is not None
        assert dest_kernel.find_pcb(pids["child"]) is not None


class TestMigrationTransparency:
    def test_client_talking_to_migrating_server_loses_nothing(self):
        """A server is migrated while a client hammers it with requests:
        the client sees every reply exactly once, in order."""
        cluster = make_cluster()
        server_state = {}

        def counting_server(ctx):
            # Serve 40 requests, echoing a running counter.
            for n in range(40):
                sender, msg = yield Receive()
                yield Compute(5_000)
                yield Reply(sender, msg.replying(n=n))
            return 0

        cluster.registry.register(ProgramImage(
            name="countsrv", image_bytes=40 * 1024, space_bytes=96 * 1024,
            code_bytes=32 * 1024, body_factory=counting_server,
        ))

        def server_session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("countsrv", where="ws1"))
            server_state["pid"] = handle.pid

        cluster.spawn_session(cluster.workstations[0], server_session, name="ssess")
        cluster.run(until_us=2_000_000)
        server_pid = server_state["pid"]

        got = []

        def client_body():
            for i in range(40):
                reply = yield Send(server_pid, Message("ping", i=i))
                got.append(reply["n"])
                yield Delay(100_000)

        ws0 = cluster.workstations[0]
        lh = ws0.kernel.create_logical_host()
        ws0.kernel.allocate_space(lh, 8192)
        ws0.kernel.create_process(lh, client_body(), name="hammer")

        results = []

        def migrator(ctx):
            yield Delay(500_000)  # mid-conversation
            reply = yield from migrate_program(server_pid)
            results.append(reply)

        cluster.spawn_session(cluster.workstations[0], migrator, name="migrator")
        cluster.run(until_us=120_000_000)
        assert results and results[0]["ok"]
        assert got == list(range(40))  # exactly once, in order

    def test_sender_mid_rpc_survives_migration_of_replier(self):
        """A client whose request is in flight when the freeze lands gets
        its reply after the migration (queued request is NAKed, client
        retransmits to the new host)."""
        cluster = make_cluster()
        server_state = {}

        def slow_server(ctx):
            sender, msg = yield Receive()
            yield Compute(3_000_000)  # long enough to freeze mid-service
            yield Reply(sender, msg.replying(done=True))
            return 0

        cluster.registry.register(ProgramImage(
            name="slowsrv", image_bytes=40 * 1024, space_bytes=96 * 1024,
            code_bytes=32 * 1024, body_factory=slow_server,
        ))

        def server_session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("slowsrv", where="ws1"))
            server_state["pid"] = handle.pid

        cluster.spawn_session(cluster.workstations[0], server_session, name="ssess")
        cluster.run(until_us=2_000_000)

        got = []

        def client_body():
            reply = yield Send(server_state["pid"], Message("work"))
            got.append(reply["done"])

        ws0 = cluster.workstations[0]
        lh = ws0.kernel.create_logical_host()
        ws0.kernel.allocate_space(lh, 8192)
        ws0.kernel.create_process(lh, client_body(), name="client")

        results = []

        def migrator(ctx):
            yield Delay(300_000)
            reply = yield from migrate_program(server_state["pid"])
            results.append(reply)

        cluster.spawn_session(cluster.workstations[0], migrator, name="migrator")
        cluster.run(until_us=120_000_000)
        assert results and results[0]["ok"], results
        assert got == [True]

    def test_migrated_program_keeps_its_outstanding_rpc(self):
        """A program that is itself awaiting a reply when migrated
        receives that reply at its new home (retained-reply recovery)."""
        cluster = make_cluster()
        noted = {}

        def slow_oracle():
            sender, msg = yield Receive()
            yield Compute(4_000_000)
            yield Reply(sender, msg.replying(answer=42))

        ws0 = cluster.workstations[0]
        olh = ws0.kernel.create_logical_host()
        ws0.kernel.allocate_space(olh, 8192)
        oracle = ws0.kernel.create_process(olh, slow_oracle(), name="oracle")

        def asker_body(ctx):
            reply = yield Send(oracle.pid, Message("ask"))
            noted["answer"] = reply["answer"]
            return 0

        cluster.registry.register(ProgramImage(
            name="asker", image_bytes=40 * 1024, space_bytes=96 * 1024,
            code_bytes=32 * 1024, body_factory=asker_body,
        ))
        state = start_remote_program(cluster, program="asker", where="ws1")
        cluster.run(until_us=1_500_000)  # asker has sent, oracle is chewing
        results = []

        def migrator(ctx):
            reply = yield from migrate_program(state["pid"])
            results.append(reply)

        cluster.spawn_session(cluster.workstations[0], migrator, name="migrator")
        cluster.run(until_us=120_000_000)
        assert results and results[0]["ok"], results
        assert noted.get("answer") == 42
        assert state.get("exit_code") == 0


class TestMigrationFailure:
    def test_no_candidate_leaves_program_running(self):
        from repro.services.program_manager import AcceptPolicy

        cluster = make_cluster(n=2, accept_policy=AcceptPolicy(max_program_processes=1))
        state = start_remote_program(cluster, where="ws1")
        cluster.run(until_us=2_000_000)
        results = []

        def migrator(ctx):
            reply = yield from migrate_program(state["pid"])
            results.append(reply)

        cluster.spawn_session(cluster.workstations[0], migrator, name="migrator")
        cluster.run(until_us=60_000_000)
        assert results and not results[0]["ok"]
        assert "no candidate" in results[0]["error"]
        # The -n flag was absent: the program survived and finished.
        assert state.get("exit_code") == 0

    def test_destroy_if_stranded_flag(self):
        from repro.services.program_manager import AcceptPolicy

        cluster = make_cluster(n=2, accept_policy=AcceptPolicy(max_program_processes=1))
        state = start_remote_program(cluster, where="ws1")
        cluster.run(until_us=2_000_000)
        results = []

        def migrator(ctx):
            reply = yield from migrate_program(state["pid"], destroy_if_stranded=True)
            results.append(reply)

        cluster.spawn_session(cluster.workstations[0], migrator, name="migrator")
        cluster.run(until_us=60_000_000)
        assert results and not results[0]["ok"]
        assert "destroyed" in results[0]["error"]
        assert cluster.workstations[1].kernel.find_pcb(state["pid"]) is None

    def test_destination_crash_mid_copy_unfreezes_original(self):
        cluster = make_cluster(n=3)
        state = start_remote_program(cluster, program="bigjob", where="ws1")
        cluster.run(until_us=3_000_000)
        results = []
        dest_pm_pid = cluster.pm("ws2").pcb.pid

        def migrator(ctx):
            reply = yield from migrate_program(state["pid"], dest_pm=dest_pm_pid)
            results.append(reply)

        cluster.spawn_session(cluster.workstations[0], migrator, name="migrator")
        # Let the pre-copy start (bigjob: ~3 s for the first round), then
        # crash the destination mid-copy.
        cluster.run(until_us=4_500_000)
        cluster.workstations[2].crash()
        cluster.sim.strict = False  # the crash strands server loops
        cluster.run(until_us=300_000_000)
        assert results and not results[0]["ok"]
        # The program is still alive (or finished) on ws1.
        pcb = cluster.workstations[1].kernel.find_pcb(state["pid"])
        assert pcb is not None or state.get("exit_code") == 0


class TestMigrateprogCommand:
    def test_migrate_all_remote_clears_workstation(self):
        cluster = make_cluster(n=4)
        states = [
            start_remote_program(cluster, where="ws1"),
            start_remote_program(cluster, where="ws1"),
        ]
        cluster.run(until_us=3_000_000)
        results = []

        def migrator(ctx):
            pm_pid = cluster.pm("ws1").pcb.pid
            outcome = yield from migrate_all_remote(pm_pid)
            results.append(outcome)

        cluster.spawn_session(cluster.workstations[0], migrator, name="migrator")
        cluster.run(until_us=120_000_000)
        assert results
        outcomes = results[0]
        assert len(outcomes) == 2
        assert all(reply["ok"] for _, reply in outcomes)
        # ws1 no longer runs any remote program.
        assert cluster.pm("ws1").remote_program_lhids() == []


class TestResidualDependencies:
    def test_no_traffic_to_old_host_after_migration(self):
        from repro.migration.residual import ResidualAuditor

        cluster = make_cluster()
        state = start_remote_program(cluster, program="churner", where="ws1")
        cluster.run(until_us=2_000_000)
        pid = state["pid"]
        auditor = ResidualAuditor(cluster.net)
        results = []

        def migrator(ctx):
            reply = yield from migrate_program(pid)
            results.append(reply)

        cluster.spawn_session(cluster.workstations[0], migrator, name="migrator")
        while not results and cluster.sim.peek() is not None:
            cluster.sim.run(until_us=cluster.sim.now + 50_000)
        assert results[0]["ok"]
        old_addr = cluster.workstations[1].address
        auditor.watch(pid.logical_host_id, old_addr)
        cluster.run(until_us=120_000_000)
        assert state.get("exit_code") == 0
        assert auditor.violation_count(pid.logical_host_id, old_addr) == 0

    def test_old_host_reboot_does_not_kill_migrated_program(self):
        cluster = make_cluster()
        state = start_remote_program(cluster, program="churner", where="ws1")
        cluster.run(until_us=2_000_000)
        pid = state["pid"]
        results = []

        def migrator(ctx):
            reply = yield from migrate_program(pid)
            results.append(reply)

        cluster.spawn_session(cluster.workstations[0], migrator, name="migrator")
        while not results and cluster.sim.peek() is not None:
            cluster.sim.run(until_us=cluster.sim.now + 50_000)
        assert results[0]["ok"]
        # The old host dies outright.
        cluster.workstations[1].crash()
        cluster.sim.strict = False
        cluster.run(until_us=200_000_000)
        # The migrated program still completed and notified its waiter.
        assert state.get("exit_code") == 0
