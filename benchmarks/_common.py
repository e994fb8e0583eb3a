"""Shared helpers for the benchmark suite."""

from __future__ import annotations

from typing import Optional

from repro.cluster import build_cluster
from repro.execution import ExecSpec, exec_program
from repro.workloads import standard_registry


def run_once(benchmark, fn):
    """Run a deterministic simulation exactly once under pytest-benchmark
    (re-running a DES gives identical numbers; wall time is what the
    benchmark fixture reports, simulated time is what the experiment
    report compares)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def workload_cluster(n=3, scale=1.0, seed=0, **kwargs):
    """A cluster with the standard Table 4-1 workload programs."""
    return build_cluster(
        n_workstations=n, seed=seed, registry=standard_registry(scale=scale),
        **kwargs,
    )


def launch_program(cluster, program, where="ws1", args=(), source=0):
    """Start a program from a session on workstation ``source``; returns
    a dict that fills with ``pid``/``origin_pm`` as the simulation runs.
    (Broadcast queries do not loop back, so ``where`` must name a machine
    other than the source.)"""
    holder = {}

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec(program, args=args, where=where))
        holder["pid"] = handle.pid
        holder["origin_pm"] = handle.origin_pm

    cluster.spawn_session(
        cluster.workstations[source], session, name=f"launch-{program}"
    )
    return holder


def run_until(cluster, predicate, step_us=50_000, limit_us=600_000_000):
    """Advance the simulation in steps until ``predicate()`` or limit."""
    while not predicate() and cluster.sim.now < limit_us:
        if cluster.sim.peek() is None:
            break
        cluster.sim.run(until_us=cluster.sim.now + step_us)
    return predicate()
