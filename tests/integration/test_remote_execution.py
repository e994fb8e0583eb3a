"""End-to-end tests of the remote-execution facility (paper §2)."""

import pytest

from repro.cluster import build_cluster
from repro.cluster.monitor import ClusterMonitor
from repro.errors import ExecutionError
from repro.execution import (
    ExecSpec,
    ProgramImage,
    ProgramRegistry,
    exec_program,
    run_program,
    wait_program,
    write_stdout,
)
from repro.kernel.process import Compute, Priority, Touch


def trivial_program(compute_us=50_000, exit_code=0):
    """A program that computes briefly, touches memory, and exits."""

    def body(ctx):
        yield Compute(compute_us)
        yield Touch(0, 4096)
        return exit_code

    return body


def printing_program(text):
    def body(ctx):
        yield Compute(10_000)
        yield from write_stdout(ctx, text)
        return 0

    return body


def make_cluster(n=3, seed=0, **kwargs):
    registry = ProgramRegistry()
    registry.register(ProgramImage(
        name="hello", image_bytes=40 * 1024, space_bytes=96 * 1024,
        code_bytes=30 * 1024, body_factory=trivial_program(),
    ))
    registry.register(ProgramImage(
        name="sevener", image_bytes=40 * 1024, space_bytes=96 * 1024,
        code_bytes=30 * 1024, body_factory=trivial_program(exit_code=7),
    ))
    registry.register(ProgramImage(
        name="printer", image_bytes=20 * 1024, space_bytes=64 * 1024,
        code_bytes=16 * 1024, body_factory=printing_program("hello from afar"),
    ))
    registry.register(ProgramImage(
        name="slowpoke", image_bytes=40 * 1024, space_bytes=96 * 1024,
        code_bytes=30 * 1024, body_factory=trivial_program(compute_us=30_000_000),
    ))
    registry.register(ProgramImage(
        name="framegrab", image_bytes=20 * 1024, space_bytes=64 * 1024,
        code_bytes=16 * 1024, body_factory=trivial_program(),
        device_bound=True,
    ))
    return build_cluster(n_workstations=n, seed=seed, registry=registry, **kwargs)


class TestLocalExecution:
    def test_run_program_returns_exit_code(self):
        cluster = make_cluster()
        results = []

        def session(ctx):
            code = yield from run_program(ctx, ExecSpec("sevener"))
            results.append(code)

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=10_000_000)
        assert results == [7]

    def test_local_program_runs_at_local_priority(self):
        cluster = make_cluster()
        seen = []

        def session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("slowpoke"))
            seen.append(handle.pid)

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=2_000_000)
        ws = cluster.workstations[0]
        pcb = ws.kernel.find_pcb(seen[0])
        assert pcb is not None
        assert pcb.priority == Priority.LOCAL

    def test_unknown_program_raises(self):
        cluster = make_cluster()
        caught = []

        def session(ctx):
            try:
                yield from exec_program(ctx, ExecSpec("does-not-exist"))
            except ExecutionError as exc:
                caught.append(str(exc))

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=10_000_000)
        assert caught and "no such program" in caught[0]


class TestRemoteExecution:
    def test_exec_at_named_machine(self):
        cluster = make_cluster()
        seen = []

        def session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("hello", where="ws2"))
            seen.append(handle.pid)

        cluster.spawn_session(cluster.workstations[0], session)
        while not seen and cluster.sim.peek() is not None:
            cluster.sim.run(until_us=cluster.sim.now + 50_000)
        assert seen
        monitor = ClusterMonitor(cluster)
        assert monitor.host_of_lhid(seen[0].logical_host_id) == "ws2"

    def test_exec_at_star_lands_on_another_idle_machine(self):
        cluster = make_cluster(n=4)
        seen = []

        def session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("hello", where="*"))
            seen.append(handle.pid)

        cluster.spawn_session(cluster.workstations[0], session)
        while not seen and cluster.sim.peek() is not None:
            cluster.sim.run(until_us=cluster.sim.now + 50_000)
        assert seen
        monitor = ClusterMonitor(cluster)
        host = monitor.host_of_lhid(seen[0].logical_host_id)
        # Broadcast queries do not loop back: some *other* machine won.
        assert host in {"ws1", "ws2", "ws3"}

    def test_remote_program_runs_at_remote_priority(self):
        cluster = make_cluster()
        seen = []

        def session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("slowpoke", where="ws1"))
            seen.append(handle.pid)

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=10_000_000)
        pcb = cluster.workstations[1].kernel.find_pcb(seen[0])
        assert pcb.priority == Priority.REMOTE

    def test_remote_wait_returns_exit_code(self):
        cluster = make_cluster()
        results = []

        def session(ctx):
            code = yield from run_program(ctx, ExecSpec("sevener", where="ws1"))
            results.append(code)

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=20_000_000)
        assert results == [7]

    def test_remote_program_output_reaches_home_display(self):
        """Network transparency: the program runs on ws1, its output
        appears on the requesting user's ws0 display (paper §2)."""
        cluster = make_cluster()

        def session(ctx):
            yield from run_program(ctx, ExecSpec("printer", where="ws1"))

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=20_000_000)
        assert "hello from afar" in cluster.displays["ws0"].all_lines()
        assert "hello from afar" not in cluster.displays["ws1"].all_lines()

    def test_device_bound_program_refused_remotely(self):
        cluster = make_cluster()
        caught = []

        def session(ctx):
            try:
                yield from exec_program(ctx, ExecSpec("framegrab", where="ws1"))
            except ExecutionError as exc:
                caught.append(str(exc))

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=10_000_000)
        assert caught and "devices" in caught[0]

    def test_device_bound_program_allowed_locally(self):
        cluster = make_cluster()
        results = []

        def session(ctx):
            code = yield from run_program(ctx, ExecSpec("framegrab"))
            results.append(code)

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=10_000_000)
        assert results == [0]

    def test_busy_machines_do_not_answer_candidate_queries(self):
        from repro.services.program_manager import AcceptPolicy

        cluster = make_cluster(
            n=2, accept_policy=AcceptPolicy(max_program_processes=0)
        )
        from repro.errors import NoCandidateHostError
        caught = []

        def session(ctx):
            try:
                yield from exec_program(ctx, ExecSpec("hello", where="*"))
            except NoCandidateHostError:
                caught.append(True)

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=60_000_000)
        assert caught == [True]

    def test_many_concurrent_remote_executions(self):
        cluster = make_cluster(n=5)
        results = []

        def session(ctx, target):
            code = yield from run_program(ctx, ExecSpec("hello", where=target))
            results.append((target, code))

        for i, target in enumerate(["ws1", "ws2", "ws3", "ws4"]):
            cluster.spawn_session(
                cluster.workstations[0],
                lambda ctx, t=target: session(ctx, t),
                name=f"session-{i}",
            )
        cluster.run(until_us=60_000_000)
        assert sorted(r[0] for r in results) == ["ws1", "ws2", "ws3", "ws4"]
        assert all(code == 0 for _, code in results)


class TestSubprograms:
    def test_subprogram_in_same_logical_host(self):
        """Sub-programs typically execute within the parent's logical
        host (paper §3)."""
        cluster = make_cluster()
        info = []

        def parent_body(ctx):
            handle = yield from exec_program(
                ctx, ExecSpec("hello", lhid=ctx.self_pid.logical_host_id)
            )
            info.append((ctx.self_pid, handle.pid))
            code = yield from wait_program(ctx, handle)
            return code

        registry = cluster.registry
        registry.register(ProgramImage(
            name="parent", image_bytes=30 * 1024, space_bytes=64 * 1024,
            code_bytes=20 * 1024, body_factory=parent_body,
        ))

        def session(ctx):
            yield from run_program(ctx, ExecSpec("parent"))

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=30_000_000)
        assert info
        parent_pid, child_pid = info[0]
        assert parent_pid.logical_host_id == child_pid.logical_host_id

    def test_subprogram_remote_from_parent_gets_own_logical_host(self):
        cluster = make_cluster()
        info = []

        def parent_body(ctx):
            handle = yield from exec_program(ctx, ExecSpec("hello", where="ws2"))
            info.append((ctx.self_pid, handle.pid))
            yield from wait_program(ctx, handle)
            return 0

        cluster.registry.register(ProgramImage(
            name="parent2", image_bytes=30 * 1024, space_bytes=64 * 1024,
            code_bytes=20 * 1024, body_factory=parent_body,
        ))

        def session(ctx):
            yield from run_program(ctx, ExecSpec("parent2"))

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=30_000_000)
        parent_pid, child_pid = info[0]
        assert parent_pid.logical_host_id != child_pid.logical_host_id


class TestEnvironmentTransparency:
    def test_context_identical_shape_local_and_remote(self):
        """The execution environment is initialized the same way locally
        and remotely (paper §2: arguments and environment passed in the
        same manner)."""
        cluster = make_cluster()
        captured = {}

        def capture_body(ctx):
            captured[ctx.remote] = ctx
            yield Compute(1_000)
            return 0

        cluster.registry.register(ProgramImage(
            name="capture", image_bytes=20 * 1024, space_bytes=64 * 1024,
            code_bytes=16 * 1024, body_factory=capture_body,
        ))

        def session(ctx):
            yield from run_program(ctx, ExecSpec("capture", args=("a", "b")))
            yield from run_program(ctx, ExecSpec("capture", args=("a", "b"), where="ws1"))

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=30_000_000)
        local, remote = captured[False], captured[True]
        assert local.args == remote.args == ("a", "b")
        assert local.stdout == remote.stdout  # same display server pid
        assert local.name_cache == remote.name_cache
        # Kernel-server/program-manager references are location-independent
        # local groups built from each program's own lhid.
        assert local.kernel_server != remote.kernel_server
