"""The paper's §1 environment at scale.

"Our research system consists of about 25 workstations and server
machines...  With a personal workstation per project member, we observe
over one third of our workstations idle, even at the busiest times of
the day...  most of our workstations are over 80% idle even during the
peak usage hours (the most common activity is editing files)."

This scenario builds that world: two dozen workstations, most owners
editing, a stream of compilations offloaded with ``@ *``, owners coming
back and reclaiming, and the claims checked at the end.
"""

import pytest

from repro.cluster import Owner, build_cluster
from repro.cluster.monitor import ClusterMonitor
from repro.execution import ExecSpec, run_program
from repro.migration.migrateprog import migrate_all_remote
from repro.workloads import standard_registry

N_WORKSTATIONS = 24
N_OWNERS = 16
N_JOBS = 10


@pytest.fixture(scope="module")
def world():
    """One shared big-cluster run (module-scoped: it is the expensive
    part; the tests below only read its outcome)."""
    cluster = build_cluster(
        n_workstations=N_WORKSTATIONS, n_file_servers=2, seed=2025,
        registry=standard_registry(scale=0.15),
    )
    owners = []
    for i in range(N_OWNERS):
        owner = Owner(cluster.workstations[i])
        owner.arrive()
        owners.append(owner)

    results = []

    def batch_session(ctx, job_id):
        from repro.kernel.process import Delay

        # Humans do not submit ten jobs in the same millisecond; the
        # decentralized scheduler relies on load info having caught up.
        yield Delay(1 + job_id * 1_500_000)
        code = yield from run_program(ctx, ExecSpec(
            "cc68" if job_id % 3 else "tex", args=(f"src{job_id}.c",),
            where="*",
        ))
        results.append((job_id, code, ctx.sim.now))

    for i in range(N_JOBS):
        cluster.spawn_session(
            cluster.workstations[i % N_OWNERS],
            lambda ctx, j=i: batch_session(ctx, j),
            name=f"batch{i}",
        )

    # Mid-run, a few owners return to borrowed machines and reclaim them.
    reclaims = []

    def reclaim_session(ctx, host):
        from repro.kernel.process import Delay

        yield Delay(8_000_000)
        pm_pid = cluster.pm(host).pcb.pid
        outcomes = yield from migrate_all_remote(pm_pid)
        reclaims.append((host, outcomes))

    for host in ("ws16", "ws18", "ws20"):
        cluster.spawn_session(cluster.station(host),
                              lambda ctx, h=host: reclaim_session(ctx, h),
                              name=f"reclaim-{h if (h:=host) else h}")

    limit = 600_000_000
    while len(results) < N_JOBS and cluster.sim.now < limit:
        if cluster.sim.peek() is None:
            break
        cluster.sim.run(until_us=cluster.sim.now + 1_000_000)
    return cluster, owners, results, reclaims


def test_all_jobs_complete(world):
    cluster, owners, results, reclaims = world
    assert len(results) == N_JOBS
    assert all(code == 0 for _, code, _ in results)


def test_cluster_remains_mostly_idle(world):
    """The paper's >1/3 idle / >80% CPU-idle observation."""
    cluster, owners, results, reclaims = world
    assert cluster.idle_fraction() > 0.6


def test_no_owner_noticed_anything(world):
    cluster, owners, results, reclaims = world
    worst = max(owner.worst_interference_us() for owner in owners)
    assert worst < 25_000  # no human-perceptible stall anywhere


def test_reclaims_cleared_their_hosts(world):
    cluster, owners, results, reclaims = world
    assert len(reclaims) == 3
    for host, outcomes in reclaims:
        # Whatever was there moved (or there was nothing to move).
        assert all(reply["ok"] for _, reply in outcomes)
        assert cluster.pm(host).remote_program_lhids() == []


def test_work_was_actually_distributed(world):
    cluster, owners, results, reclaims = world
    busy_hosts = sum(
        1 for ws in cluster.workstations
        if ws.kernel.scheduler.busy_us > 1_000_000
    )
    assert busy_hosts >= 5  # the jobs spread, not piled


def test_no_simulation_failures(world):
    cluster, owners, results, reclaims = world
    assert all(not ws.kernel.faulted for ws in cluster.workstations)
