"""Tests for the preemption-based load balancer (paper §6 extension)."""

import pytest

from repro.cluster import build_cluster
from repro.cluster.balancer import BalancerPolicy, LoadBalancer, install_load_balancer
from repro.cluster.monitor import ClusterMonitor
from repro.execution import ExecSpec, exec_program, wait_program
from repro.workloads import standard_registry


def make_loaded_cluster(n=4, jobs=3, seed=0, scale=1.0):
    """All jobs piled onto ws1 (pinned), the rest of the cluster idle."""
    cluster = build_cluster(n_workstations=n, seed=seed,
                            registry=standard_registry(scale=scale))
    holders = []

    def session(ctx, holder):
        handle = yield from exec_program(ctx, ExecSpec("longsim", where="ws1"))
        holder["pid"] = handle.pid
        code = yield from wait_program(ctx, handle)
        holder["code"] = code

    for i in range(jobs):
        holder = {}
        holders.append(holder)
        cluster.spawn_session(cluster.workstations[0],
                              lambda ctx, h=holder: session(ctx, h),
                              name=f"job{i}")
    while not all("pid" in h for h in holders) and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    return cluster, holders


def test_balancer_spreads_piled_up_jobs():
    cluster, holders = make_loaded_cluster(jobs=3)
    balancer = install_load_balancer(
        cluster, "ws0",
        BalancerPolicy(interval_us=1_000_000, overload_threshold=1,
                       underload_threshold=1, max_moves_per_round=1),
    )
    cluster.run(until_us=cluster.sim.now + 30_000_000)
    monitor = ClusterMonitor(cluster)
    hosts = {str(h["pid"]): monitor.host_of_lhid(h["pid"].logical_host_id)
             for h in holders if "code" not in h}
    # The pile on ws1 was spread out.
    remote_counts = {}
    for host in hosts.values():
        if host is not None:
            remote_counts[host] = remote_counts.get(host, 0) + 1
    assert balancer.stats.moves_succeeded >= 2
    assert all(count <= 2 for count in remote_counts.values())


def test_balanced_jobs_still_complete():
    cluster, holders = make_loaded_cluster(jobs=3, scale=0.3)
    install_load_balancer(
        cluster, "ws0",
        BalancerPolicy(interval_us=1_000_000, overload_threshold=1),
    )
    cluster.run(until_us=600_000_000)
    assert all(h.get("code") == 0 for h in holders)


def test_balancer_idle_when_cluster_is_balanced():
    cluster = build_cluster(n_workstations=3,
                            registry=standard_registry(scale=0.3))
    balancer = install_load_balancer(cluster, "ws0")
    cluster.run(until_us=15_000_000)
    assert balancer.stats.rounds >= 5
    assert balancer.stats.moves_requested == 0


def test_balancer_stop():
    cluster = build_cluster(n_workstations=2,
                            registry=standard_registry(scale=0.3))
    balancer = install_load_balancer(cluster, "ws0")
    cluster.run(until_us=5_000_000)
    balancer.stop()
    cluster.run(until_us=10_000_000)
    rounds = balancer.stats.rounds
    cluster.run(until_us=20_000_000)
    assert balancer.stats.rounds == rounds  # loop exited


def test_balancer_respects_moves_per_round():
    cluster, holders = make_loaded_cluster(jobs=3)
    balancer = install_load_balancer(
        cluster, "ws0",
        BalancerPolicy(interval_us=5_000_000, overload_threshold=1,
                       max_moves_per_round=1),
    )
    cluster.run(until_us=cluster.sim.now + 6_000_000)
    assert balancer.stats.moves_requested <= 2


def test_survey_drops_unreachable_host_and_continues():
    """A crashed host must cost the survey one timeout, not the round:
    its answer is dropped, everyone else's still counts, and the pile on
    ws1 gets spread regardless (the serial-survey hang this guards
    against stalled the whole daemon on the first dead machine)."""
    cluster, holders = make_loaded_cluster(n=5, jobs=3)
    cluster.sim.strict = False
    cluster.station("ws4").kernel.crash()  # idle bystander dies
    balancer = install_load_balancer(
        cluster, "ws0",
        BalancerPolicy(interval_us=1_000_000, overload_threshold=1,
                       underload_threshold=1, max_moves_per_round=1),
    )
    cluster.run(until_us=cluster.sim.now + 30_000_000)
    assert balancer.stats.unreachable >= 1
    assert balancer.stats.rounds >= 3
    assert balancer.stats.moves_succeeded >= 2


def test_balancer_survives_workstation_reboot():
    """The roster is re-resolved every round, so a rebooted host's fresh
    manager pid is picked up and the daemon keeps running instead of
    surveying the dead pid forever."""
    cluster = build_cluster(n_workstations=3,
                            registry=standard_registry(scale=0.3))
    balancer = install_load_balancer(
        cluster, "ws0", BalancerPolicy(interval_us=1_000_000))
    cluster.run(until_us=5_000_000)
    old_pid = cluster.program_managers["ws1"].pcb.pid
    cluster.sim.strict = False
    cluster.reboot_workstation("ws1")
    rounds_before = balancer.stats.rounds
    cluster.run(until_us=cluster.sim.now + 10_000_000)
    assert cluster.program_managers["ws1"].pcb.pid != old_pid
    assert balancer.stats.rounds >= rounds_before + 5
    # At most the in-flight round saw the dying manager.
    assert balancer.stats.unreachable <= 1


def test_balancer_and_owner_reclaim_coexist():
    """A reclaim and the balancer may target the same host at once; the
    in-progress guard serializes them and everything still completes."""
    from repro.migration.migrateprog import migrate_all_remote

    cluster, holders = make_loaded_cluster(jobs=3, scale=0.3)
    install_load_balancer(
        cluster, "ws0",
        BalancerPolicy(interval_us=800_000, overload_threshold=0,
                       underload_threshold=1, max_moves_per_round=2),
    )
    outcomes = []

    def reclaim(ctx):
        from repro.kernel.process import Delay

        yield Delay(1_000_000)
        pm_pid = cluster.pm("ws1").pcb.pid
        results = yield from migrate_all_remote(pm_pid)
        outcomes.append(results)

    cluster.spawn_session(cluster.station("ws1"), reclaim, name="reclaim")
    cluster.run(until_us=600_000_000)
    assert all(h.get("code") == 0 for h in holders)
    assert outcomes  # the reclaim ran (possibly finding some refusals)
