#!/usr/bin/env python
"""Load balancing via preemption (the paper's §6 future work, built).

"We have not used the preemption facility to balance the load across
multiple workstations...  increasing use of distributed execution may
provide motivation to address this issue."

A user dumps four long simulations onto one workstation (mis-scheduling
happens: here they name the machine explicitly).  A balancer daemon
notices, and one preemption at a time spreads the pile across the idle
cluster.  The same run without the balancer shows what it bought.

Run:  python examples/load_balancing.py
"""

from repro.cluster import BalancerPolicy, build_cluster, install_load_balancer
from repro.cluster.monitor import ClusterMonitor
from repro.execution import ExecSpec, exec_program, wait_program
from repro.workloads import standard_registry

N_JOBS = 4


def run(balanced: bool):
    cluster = build_cluster(
        n_workstations=5, seed=13, registry=standard_registry(scale=0.25)
    )
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
    balancer = None
    if balanced:
        balancer = install_load_balancer(
            cluster, "ws0",
            BalancerPolicy(interval_us=1_500_000, overload_threshold=1,
                           underload_threshold=1, max_moves_per_round=1),
        )
    while (not all("finished" in h for h in holders)
           and cluster.sim.peek() is not None):
        cluster.sim.run(until_us=cluster.sim.now + 200_000)
    makespan = max(h["finished"] for h in holders) / 1e6
    return makespan, balancer, cluster


def main():
    piled, _, _ = run(balanced=False)
    spread, balancer, cluster = run(balanced=True)

    print("=== four simulations dumped on ws1 ===\n")
    print(f"  without balancer: all four time-share one CPU -> "
          f"makespan {piled:.1f} s")
    print(f"  with balancer:    {balancer.stats.moves_succeeded} preemptive "
          f"migrations -> makespan {spread:.1f} s "
          f"({piled / spread:.2f}x faster)\n")
    print("balancer decisions:")
    for t, pid, src, dst in balancer.stats.history:
        print(f"  t={t / 1e6:6.2f}s  moved {pid} {src} -> {dst}")
    print("\nthe mechanism is exactly the paper's migrate-out facility; the "
          "balancer is ~100 lines of policy on top.")


if __name__ == "__main__":
    main()
