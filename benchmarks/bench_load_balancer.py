"""Extension bench -- preemption-based load balancing (paper §6).

The paper left load balancing as future work; this measures what the
migration facility buys when a balancer daemon uses it: makespan of a
pile of jobs dumped on one workstation, with and without balancing.
"""

from repro.cluster import BalancerPolicy, build_cluster, install_load_balancer
from repro.execution import ExecSpec, exec_program, wait_program
from repro.metrics.report import ExperimentReport, register
from repro.workloads import standard_registry

from _common import run_once, run_until

N_JOBS = 3


def _measure(balanced: bool, seed=3):
    cluster = build_cluster(n_workstations=4, seed=seed,
                            registry=standard_registry(scale=0.25))
    holders = []

    def session(ctx, holder):
        handle = yield from exec_program(ctx, ExecSpec("longsim", where="ws1"))
        holder["pid"] = handle.pid
        code = yield from wait_program(ctx, handle)
        holder["code"] = code
        holder["finished"] = ctx.sim.now

    for i in range(N_JOBS):
        holder = {}
        holders.append(holder)
        cluster.spawn_session(cluster.workstations[0],
                              lambda ctx, h=holder: session(ctx, h),
                              name=f"job{i}")
    if balanced:
        install_load_balancer(
            cluster, "ws0",
            BalancerPolicy(interval_us=1_000_000, overload_threshold=1,
                           underload_threshold=1, max_moves_per_round=2),
        )
    run_until(cluster, lambda: all("finished" in h for h in holders))
    assert all(h.get("code") == 0 for h in holders)
    return max(h["finished"] for h in holders) / 1e6


def test_balancer_improves_makespan(benchmark):
    def run():
        return _measure(balanced=False), _measure(balanced=True)

    piled_s, balanced_s = run_once(benchmark, run)
    report = ExperimentReport(
        "A5", "extension: load balancing via preemption (paper §6 future work)"
    )
    report.add(f"{N_JOBS} jobs piled on one host, no balancer", "s", None,
               round(piled_s, 1))
    report.add(f"{N_JOBS} jobs with balancer daemon", "s", None,
               round(balanced_s, 1))
    report.add("makespan improvement", "x", None, round(piled_s / balanced_s, 2))
    register(report)
    assert balanced_s < piled_s * 0.8
