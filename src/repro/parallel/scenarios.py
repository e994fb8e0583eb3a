"""The sweep scenario registry.

A *scenario* is the unit a sweep replicates: a function that builds a
fresh simulated world from ``(config, seed)``, runs it, and returns a
plain JSON-able dict of **simulated** quantities.  The determinism
contract every scenario must honor:

* all randomness comes from the simulator's seeded streams -- never
  ``random``/``time``/``os`` state;
* the result contains no wall-clock values, object reprs with ids, or
  anything else that varies between processes;
* module/global state is reset per run (``build_cluster`` already
  resets the world counters it depends on).

Scenarios registered at import time are visible in every worker process
-- workers import this module, so both fork and spawn start methods see
the same registry.  ``warm`` is a per-worker-process scratch dict for
*world-building* artifacts that are expensive but immutable (program
registries, parsed images); the simulator itself is always rebuilt per
replication, because reusing one across seeds would break determinism.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.errors import SimulationError

ScenarioFn = Callable[..., Dict[str, Any]]

_SCENARIOS: Dict[str, ScenarioFn] = {}


def register_scenario(name: str) -> Callable[[ScenarioFn], ScenarioFn]:
    """Decorator: make ``fn(config, seed, *, collect_metrics, warm)``
    available to sweeps under ``name``."""

    def deco(fn: ScenarioFn) -> ScenarioFn:
        if name in _SCENARIOS:
            raise SimulationError(f"scenario {name!r} already registered")
        _SCENARIOS[name] = fn
        return fn

    return deco


def get_scenario(name: str) -> ScenarioFn:
    fn = _SCENARIOS.get(name)
    if fn is None:
        raise SimulationError(
            f"unknown scenario {name!r}; known: {', '.join(scenario_names())}"
        )
    return fn


def scenario_names() -> List[str]:
    return sorted(_SCENARIOS)


# --------------------------------------------------------------- built-ins

def _warm_registry(warm: Optional[dict], scale: float):
    """Per-worker cached program registry for ``scale`` (registries are
    read-only after construction, so sharing across replications is
    safe; the byte-identity property test is the canary)."""
    from repro.workloads import standard_registry

    if warm is None:
        return standard_registry(scale=scale)
    key = ("registry", scale)
    registry = warm.get(key)
    if registry is None:
        registry = warm[key] = standard_registry(scale=scale)
    return registry


def _maybe_metrics(cluster, collect_metrics: bool):
    if collect_metrics:
        cluster.sim.metrics.enable()


def _finish(cluster, result: Dict[str, Any], collect_metrics: bool) -> Dict[str, Any]:
    sim = cluster.sim
    result["sim_time_us"] = sim.now
    result["events"] = sim.event_count
    result["packets"] = cluster.net.packets_sent
    if collect_metrics:
        result["metrics"] = sim.metrics.snapshot()
    return result


@register_scenario("migration")
def migration_scenario(
    config: Dict[str, Any],
    seed: int,
    collect_metrics: bool = False,
    warm: Optional[dict] = None,
) -> Dict[str, Any]:
    """Remote-execute ``program`` on ws1, let it run, migrate it off
    mid-run (the paper's Table 1/2 measurement, one cell).

    Config: ``program`` (default "tex"), ``workstations`` (3),
    ``scale`` (1.0, program-size multiplier), ``settle_ms`` (1000, run
    time before the migration starts).
    """
    from repro.cluster import build_cluster
    from repro.execution import ExecSpec, exec_program
    from repro.kernel.process import Priority
    from repro.migration.manager import run_migration

    program = config.get("program", "tex")
    n_ws = int(config.get("workstations", 3))
    scale = float(config.get("scale", 1.0))
    settle_us = int(config.get("settle_ms", 1000)) * 1000

    cluster = build_cluster(
        n_workstations=n_ws,
        registry=_warm_registry(warm, scale),
        seed=seed,
    )
    _maybe_metrics(cluster, collect_metrics)
    sim = cluster.sim
    holder: Dict[str, Any] = {}

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec(program, where="ws1"))
        holder["pid"] = handle.pid

    cluster.spawn_session(cluster.workstations[0], session)
    while "pid" not in holder and sim.peek() is not None:
        sim.run(until_us=sim.now + 100_000)
    if "pid" not in holder:
        raise SimulationError(f"program {program!r} never started")
    cluster.run(until_us=sim.now + settle_us)

    kernel = cluster.workstations[1].kernel
    lh = kernel.logical_hosts[holder["pid"].logical_host_id]
    done: List[Any] = []

    def mgr():
        stats = yield from run_migration(kernel, lh)
        done.append(stats)

    kernel.create_process(
        cluster.pm("ws1").pcb.logical_host, mgr(),
        priority=Priority.MIGRATION, name="sweep-mgr",
    )
    while not done and sim.peek() is not None:
        sim.run(until_us=sim.now + 100_000)
    stats = done[0]
    return _finish(cluster, {
        "program": program,
        "success": stats.success,
        "error": stats.error,
        "dest_host": stats.dest_host,
        "precopy_rounds": [
            {"round": r.round_index, "pages": r.pages,
             "bytes": r.bytes, "duration_us": r.duration_us}
            for r in stats.rounds
        ],
        "residual_pages": stats.residual_pages,
        "freeze_us": stats.freeze_us,
        "total_us": stats.total_us,
    }, collect_metrics)


@register_scenario("ping")
def ping_scenario(
    config: Dict[str, Any],
    seed: int,
    collect_metrics: bool = False,
    warm: Optional[dict] = None,
) -> Dict[str, Any]:
    """IPC round trips: a session on ws0 resolves a remote host by name
    ``count`` times through the program-manager group (one multicast
    query + reply each).  A cheap, network-heavy scenario for exercising
    the sweep machinery itself.

    Config: ``count`` (default 25), ``workstations`` (3),
    ``target`` ("ws1").
    """
    from repro.cluster import build_cluster
    from repro.execution.api import query_host_by_name

    count = int(config.get("count", 25))
    n_ws = int(config.get("workstations", 3))
    target = config.get("target", "ws1")

    cluster = build_cluster(
        n_workstations=n_ws,
        registry=_warm_registry(warm, 1.0),
        seed=seed,
    )
    _maybe_metrics(cluster, collect_metrics)
    sim = cluster.sim
    replies: List[Any] = []

    def session(ctx):
        for _ in range(count):
            pm = yield from query_host_by_name(target)
            replies.append(str(pm))

    cluster.spawn_session(cluster.workstations[0], session)
    while len(replies) < count and sim.peek() is not None:
        sim.run(until_us=sim.now + 100_000)
    return _finish(cluster, {
        "count": count,
        "completed": len(replies),
        "pm": replies[-1] if replies else None,
    }, collect_metrics)


# The chaos scenario registers itself on import; importing it here makes
# it visible in every sweep worker (they import this module).  The
# import must stay at the bottom: repro.faults.campaign imports
# ``register_scenario`` from this module at its own import time.
import repro.faults.campaign  # noqa: E402,F401  (registration side effect)
import repro.workloads.job_storm  # noqa: E402,F401  (registration side effect)
