"""Randomized end-to-end migration consistency.

For arbitrary seeds (hence arbitrary dirtying patterns, timings and
destinations), a mid-run migration must preserve: the pid, exactly one
live copy, page-version consistency, and the program's final result.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.cluster.monitor import ClusterMonitor
from repro.execution import (
    ExecSpec,
    ProgramImage,
    ProgramRegistry,
    exec_program,
    wait_program,
)
from repro.kernel.process import Compute, TouchPages
from repro.migration.migrateprog import migrate_program


def churner(iterations, burst, period_us, pool):
    def body(ctx):
        rng = ctx.sim.rand.stream(f"prop:{ctx.self_pid.as_int():08x}")
        for _ in range(iterations):
            yield Compute(period_us)
            yield TouchPages(sorted(rng.sample(range(pool), burst)))
        return 0

    return body


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    burst=st.integers(min_value=1, max_value=6),
    period_ms=st.integers(min_value=10, max_value=60),
    migrate_after_ms=st.integers(min_value=200, max_value=2_000),
)
@settings(max_examples=10, deadline=None)
def test_midrun_migration_preserves_everything(seed, burst, period_ms,
                                               migrate_after_ms):
    registry = ProgramRegistry()
    registry.register(ProgramImage(
        name="victim", image_bytes=64 * 1024, space_bytes=192 * 1024,
        code_bytes=48 * 1024,
        body_factory=churner(
            iterations=6_000 // period_ms, burst=burst,
            period_us=period_ms * 1000, pool=48,
        ),
    ))
    cluster = build_cluster(n_workstations=3, seed=seed, registry=registry)
    job = {}

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec("victim", where="ws1"))
        job["pid"] = handle.pid
        code = yield from wait_program(ctx, handle)
        job["code"] = code

    cluster.spawn_session(cluster.workstations[0], session)
    while "pid" not in job and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 50_000)
    pid = job["pid"]
    cluster.run(until_us=cluster.sim.now + migrate_after_ms * 1000)
    replies = []

    def migrator(ctx):
        reply = yield from migrate_program(pid)
        replies.append(reply)

    cluster.spawn_session(cluster.workstations[0], migrator, name="mig")
    while not replies and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 50_000)

    reply = replies[0]
    if reply["ok"]:
        monitor = ClusterMonitor(cluster)
        hosting = [ws.name for ws in cluster.workstations
                   if ws.kernel.find_pcb(pid) is not None]
        # Exactly one live copy, with the original pid, somewhere else.
        assert len(hosting) <= 1  # 0 allowed: it may finish immediately after
        assert "ws1" not in hosting
        stats = reply["stats"]
        assert stats.total_copied_bytes >= 192 * 1024  # at least one full copy
        assert stats.freeze_us < stats.total_us
    else:
        # The only legitimate failure mid-run with idle hosts around:
        assert "exited during migration" in (reply.get("error") or "")
    cluster.run(until_us=600_000_000)
    assert job.get("code") == 0
