"""E13 -- §4.3 observations on usage, reproduced as measurements.

"Most of our workstations are over 80% idle even during the peak usage
hours of the day (the most common activity is editing files), almost all
remote execution requests are honored...  The ability to preempt has to
date proven most useful for allowing very long running simulation jobs
to run on the idle workstations and then migrate elsewhere when their
users want to use them."
"""

from repro.cluster import Owner, build_cluster
from repro.errors import NoCandidateHostError
from repro.execution import ExecSpec, run_program
from repro.metrics.report import ExperimentReport, register
from repro.migration.migrateprog import migrate_all_remote
from repro.workloads import standard_registry

from _common import run_once


def _simulate_peak_hours():
    cluster = build_cluster(
        n_workstations=12, seed=77, registry=standard_registry(scale=0.15)
    )
    owners = [Owner(cluster.workstations[i]) for i in range(8)]
    for owner in owners:
        owner.arrive()

    honored, refused = [], []

    def batch(ctx, j):
        from repro.kernel.process import Delay

        yield Delay(1 + j * 2_000_000)
        try:
            code = yield from run_program(ctx, ExecSpec("cc68", (f"f{j}.c",), where="*"))
            honored.append(code)
        except NoCandidateHostError:
            refused.append(j)

    for j in range(6):
        cluster.spawn_session(cluster.workstations[j % 8],
                              lambda ctx, j=j: batch(ctx, j), name=f"b{j}")

    reclaimed = []

    def reclaim(ctx):
        from repro.kernel.process import Delay

        yield Delay(6_000_000)
        pm_pid = cluster.pm("ws9").pcb.pid
        outcomes = yield from migrate_all_remote(pm_pid)
        reclaimed.extend(outcomes)

    cluster.spawn_session(cluster.station("ws9"), reclaim, name="reclaim")

    limit = 400_000_000
    while (len(honored) + len(refused) < 6 and cluster.sim.now < limit
           and cluster.sim.peek() is not None):
        cluster.sim.run(until_us=cluster.sim.now + 1_000_000)
    return cluster, owners, honored, refused, reclaimed


def test_usage_observations(benchmark):
    cluster, owners, honored, refused, reclaimed = run_once(
        benchmark, _simulate_peak_hours
    )
    idle_pct = cluster.idle_fraction() * 100
    honored_pct = 100.0 * len(honored) / max(len(honored) + len(refused), 1)
    worst_owner_us = max(o.worst_interference_us() for o in owners)
    report = ExperimentReport("E13", "§4.3 usage observations at peak hours")
    report.add("workstation CPU idle", "%", 80.0, round(idle_pct, 1),
               note="paper: 'over 80% idle even during peak'")
    report.add("remote requests honored", "%", 100.0, round(honored_pct, 1),
               note="paper: 'almost all requests are honored'")
    report.add("reclaims that succeeded", "n", None,
               sum(1 for _, r in reclaimed if r["ok"]))
    report.add("worst owner keystroke delay", "us", None, worst_owner_us)
    register(report)
    assert idle_pct > 80.0
    assert honored_pct == 100.0
    assert all(code == 0 for code in honored)
