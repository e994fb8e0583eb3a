"""The ``job_storm`` workload: open-loop Poisson exec arrivals.

The ROADMAP's north-star load is many workstations continuously execing
small jobs ``@ *`` -- exactly where the paper's multicast candidate
query stops scaling (every request storms every program manager).  This
scenario drives that load deterministically: job requests arrive as a
Poisson process (precomputed from a named random stream, so replayable
and coordinate-pure), each submitter execs one small ``job`` program
under a configurable placement policy and waits for it, and the payload
reports exec-to-start latency percentiles, scheduling throughput and
the cluster-wide selection message cost per exec -- the metrics
``tests/properties/test_placement.py`` gates the policies on at 128
hosts.

Each run builds its own cluster, so runs share no process state and
the scenario composes with the sweep pool's serial ≡ parallel
byte-identity guarantee.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.parallel.scenarios import register_scenario

#: The job image: small enough that a workstation can host several
#: (3 × 96 KB well under the 2 MB machine), big enough to cost a real
#: load (the paper's 330 ms per 100 KB puts this at ~100 ms).
JOB_IMAGE_BYTES = 32 * 1024
JOB_SPACE_BYTES = 96 * 1024
JOB_CODE_BYTES = 24 * 1024


def _job_registry(service_us: int):
    """A registry with the one tiny ``job`` program."""
    from repro.execution.program import ProgramImage, ProgramRegistry
    from repro.kernel.process import Compute, Touch

    def job_body(ctx):
        yield Compute(service_us)
        yield Touch(0, 8 * 1024)
        return 0

    registry = ProgramRegistry()
    registry.register(ProgramImage(
        name="job", image_bytes=JOB_IMAGE_BYTES,
        space_bytes=JOB_SPACE_BYTES, code_bytes=JOB_CODE_BYTES,
        body_factory=job_body,
    ))
    return registry


def _percentile(sorted_values: List[int], q: float) -> int:
    """Nearest-rank percentile of a pre-sorted list (0 when empty)."""
    if not sorted_values:
        return 0
    rank = min(len(sorted_values) - 1,
               max(0, int(q * (len(sorted_values) - 1) + 0.5)))
    return sorted_values[rank]


@register_scenario("job_storm")
def job_storm_scenario(
    config: Dict[str, Any],
    seed: int,
    collect_metrics: bool = False,
    warm: Optional[dict] = None,
) -> Dict[str, Any]:
    """Open-loop Poisson ``@ *`` exec storm under one placement policy.

    Config: ``workstations`` (8), ``jobs`` (3 per workstation),
    ``rate_per_s`` (cluster-wide arrival rate; the default paces jobs
    over ~4 simulated seconds, capped under the file server's image
    load capacity), ``policy`` ("first_responder" or "random_k"),
    ``k`` (RandomK's probe count, 3), ``service_ms`` (20, the job's
    compute time).
    """
    from repro.cluster import build_cluster
    from repro.cluster.placement import POLICIES
    from repro.errors import ExecutionError, NoCandidateHostError
    from repro.execution.api import ExecSpec, exec_program, wait_program
    from repro.kernel.process import Delay, Priority

    n_ws = int(config.get("workstations", 8))
    n_jobs = int(config.get("jobs", 3 * n_ws))
    # Default rate is capped below the single file server's image-load
    # capacity (~330 ms per 100 KB puts the 32 KB job at ~9.5 loads/s):
    # an open-loop rate above that saturates the load queue and every
    # policy degenerates into measuring the same file-server backlog.
    rate_per_s = float(config.get("rate_per_s", min(n_jobs / 4.0, 6.0)))
    policy_name = str(config.get("policy", "first_responder"))
    k = int(config.get("k", 3))
    service_us = int(config.get("service_ms", 20)) * 1000
    if policy_name not in POLICIES:
        raise ValueError(
            f"unknown placement policy {policy_name!r}; "
            f"known: {', '.join(sorted(POLICIES))}"
        )

    cluster = build_cluster(
        n_workstations=n_ws, seed=seed, registry=_job_registry(service_us),
    )
    sim = cluster.sim
    if collect_metrics:
        sim.metrics.enable()

    # Precompute the Poisson arrival schedule from a named stream:
    # deterministic, seed-isolated, independent of policy.
    stream = sim.rand.stream("job_storm:arrivals")
    arrivals: List[int] = []
    t = 0.0
    for _ in range(n_jobs):
        t += stream.expovariate(rate_per_s)
        arrivals.append(int(t * 1_000_000))

    latencies: List[int] = []
    attempts: List[int] = []
    exit_codes: List[int] = []
    failures: List[str] = []

    def make_policy_instance():
        if policy_name == "random_k":
            return POLICIES[policy_name](k=k)
        return POLICIES[policy_name]()

    def submitter_factory(arrive_us: int):
        def body(ctx):
            if arrive_us > 0:
                yield Delay(arrive_us)
            spec = ExecSpec(
                "job", where="*", policy=make_policy_instance(),
                retry_budget=8, timeout_us=4_000_000,
            )
            requested = sim.now
            try:
                handle = yield from exec_program(ctx, spec)
            except (ExecutionError, NoCandidateHostError) as exc:
                failures.append(type(exc).__name__)
                return
            latencies.append(handle.started_at - requested)
            attempts.append(handle.attempts)
            code = yield from wait_program(ctx, handle)
            exit_codes.append(code)
        return body

    # One small session logical host per workstation carries all of
    # that workstation's submitters (memory-neutral in the job
    # count, unlike one spawn_session per job).  Submitters run at
    # SERVER priority: they are load drivers, and at LOCAL priority
    # they would count as program processes and saturate every
    # host's accept policy before a single job ran.
    for i, ws in enumerate(cluster.workstations):
        kernel = ws.kernel
        lh = kernel.create_logical_host()
        kernel.allocate_space(lh, 64 * 1024, name="storm-session")
        for j, arrive_us in enumerate(arrivals):
            if j % n_ws != i:
                continue
            body_factory = submitter_factory(arrive_us)

            def boot(factory=body_factory, ws=ws):
                yield from factory(
                    cluster.make_context(pcb, home=ws.name))

            pcb = kernel.create_process(
                lh, boot(), priority=Priority.SERVER,
                name=f"submit-{j}",
            )

    hard_stop = (arrivals[-1] if arrivals else 0) + 60_000_000
    while (len(exit_codes) + len(failures)) < n_jobs:
        if sim.peek() is None or sim.now >= hard_stop:
            break
        sim.run(until_us=min(hard_stop, sim.now + 500_000))

    selection_msgs = sum(
        pm.selection_queries
        for pm in cluster.program_managers.values())
    declines = sum(
        pm.exec_declines for pm in cluster.program_managers.values())

    latencies.sort()
    completed = len(exit_codes)
    sim_s = sim.now / 1_000_000 if sim.now else 1.0
    result: Dict[str, Any] = {
        "policy": policy_name,
        "workstations": n_ws,
        "jobs": n_jobs,
        "completed": completed,
        "failed": len(failures),
        "failure_kinds": sorted(set(failures)),
        "latency_us": {
            "p50": _percentile(latencies, 0.50),
            "p99": _percentile(latencies, 0.99),
            "mean": (sum(latencies) // len(latencies)) if latencies else 0,
            "max": latencies[-1] if latencies else 0,
        },
        "placement_attempts_mean": (
            sum(attempts) / len(attempts) if attempts else 0.0),
        "selection_msgs": selection_msgs,
        "selection_msgs_per_exec": (
            selection_msgs / n_jobs if n_jobs else 0.0),
        "admission_declines": declines,
        "throughput_jobs_per_s": completed / sim_s,
        "sim_time_us": sim.now,
        "events": sim.event_count,
        "packets": cluster.net.packets_sent,
    }
    if collect_metrics:
        result["metrics"] = sim.metrics.snapshot()
    return result
