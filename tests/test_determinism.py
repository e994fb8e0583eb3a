"""The determinism contract, end to end.

EXPERIMENTS.md promises: "All measured numbers are simulated time from
one deterministic run (seed-stable; re-running reproduces them
exactly)."  These tests hold the whole stack to that: two identical
builds produce bit-identical histories, different seeds diverge."""

import pytest

from repro.cluster import build_cluster
from repro.execution import ExecSpec, exec_program, wait_program
from repro.migration.migrateprog import migrate_program
from repro.workloads import standard_registry


def run_world(seed):
    """One full scenario; returns a digest of everything observable."""
    cluster = build_cluster(n_workstations=3, seed=seed,
                            registry=standard_registry(scale=0.3))
    job = {}

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec("longsim", where="ws1"))
        job["pid"] = handle.pid
        code = yield from wait_program(ctx, handle)
        job["code"] = code
        job["done_at"] = ctx.sim.now

    cluster.spawn_session(cluster.workstations[0], session)
    while "pid" not in job and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    replies = []

    def migrator(ctx):
        reply = yield from migrate_program(job["pid"])
        replies.append(reply)

    cluster.spawn_session(cluster.workstations[0], migrator, name="mig")
    cluster.run(until_us=300_000_000)
    stats = replies[0]["stats"]
    return {
        "pid": job["pid"].as_int(),
        "code": job.get("code"),
        "done_at": job.get("done_at"),
        "dest": replies[0].get("dest"),
        "rounds": tuple((r.pages, r.duration_us) for r in stats.rounds),
        "freeze_us": stats.freeze_us,
        "residual": stats.residual_bytes,
        "packets": cluster.net.packets_sent,
        "bytes": cluster.net.bytes_sent,
    }


def test_same_seed_bit_identical_history():
    assert run_world(123) == run_world(123)


def test_different_seeds_diverge():
    a, b = run_world(123), run_world(321)
    assert a != b
    # ...but both worlds still work correctly.
    assert a["code"] == b["code"] == 0
