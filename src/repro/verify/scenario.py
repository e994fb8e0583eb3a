"""The verification workload and the per-cell wrapper scenario.

``ordering`` is the scenario the toggle matrix replays: an IPC echo
stream, a mid-run migration of the server, and a *tie storm* -- rounds
of twin timers with equal delays, guaranteeing a steady supply of
same-instant event collisions and same-instant timer cancels (the
exact interleavings §3.1-3.2's freeze/copy/retry argument must commute
over).  It returns a plain JSON-able payload with no wall-clock values,
so two runs of the same cell must produce *byte-identical* payloads
(:func:`canonical_digest`).

``verify_cell`` wraps any registered scenario in one matrix cell: hand
the scenario a toggle vector (which it turns into the inputs of the
cluster it builds, :func:`cluster_inputs`) and optionally a mutation
(which it applies to that cluster), optionally arm a schedule perturber,
run, disarm, and report the payload
plus its digest, the invariant verdict, the stable outcome fields and
the KPI scalars the classifier needs.  Cells ride the :mod:`repro.parallel`
sweep pool unchanged -- a cell is just a sweep config -- and crashes are
returned as data (``crash``) rather than poisoning the whole chunk.

Seeding: the sweep engine derives a distinct seed per (config,
replication) coordinate, but differential cells must all replay the
*same* scenario seed -- so a cell carries ``base_seed`` in its config
and ignores the sweep-provided one.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

from repro.config import DEFAULT_MODEL, HardwareModel
from repro.errors import SimulationError
from repro.parallel.scenarios import get_scenario, register_scenario

#: KPI scalars compared under the ``repro diff`` tolerance formula for
#: tolerance-class cells (exact equality is asserted via ``stable``).
KPI_FIELDS = ("events", "packets")

#: The protocol modes a cell can switch on, each an input of the
#: cluster the scenario builds.  All default off.
KNOBS = ("load_cache",)

#: Outcome fields that must match the baseline *exactly* in every
#: non-crashed, non-faulted cell: losing a request or a migration to a
#: toggle flip is a bug no tolerance should hide.
STABLE_FIELDS = ("completed", "served", "migration_success",
                 "invariants_ok")


def cluster_inputs(toggles: Optional[Dict[str, bool]],
                   model: Optional[HardwareModel] = None) -> Dict[str, Any]:
    """The ``build_cluster`` keyword arguments for a toggle vector:
    ``model`` (default: the calibrated one) plus the host-state caches
    as the ``placement`` argument.  Unknown names raise."""
    toggles = toggles or {}
    for name in toggles:
        if name not in KNOBS:
            raise SimulationError(
                f"unknown toggle {name!r}; known: {', '.join(KNOBS)}"
            )
    return {
        "model": model or DEFAULT_MODEL,
        "placement": bool(toggles.get("load_cache")),
    }


def canonical_digest(payload: Any) -> str:
    """SHA-256 over the canonical JSON encoding of ``payload`` -- the
    byte-identity test two runs of the same cell must pass."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@register_scenario("ordering")
def ordering_scenario(
    config: Dict[str, Any],
    seed: int,
    collect_metrics: bool = False,
    warm: Optional[dict] = None,
) -> Dict[str, Any]:
    """Echo stream + mid-run migration + same-instant tie storm.

    Config: ``toggles`` (knob -> bool, see :func:`cluster_inputs`),
    ``mutation`` (None -- a :data:`repro.verify.mutation.MUTATIONS` name
    applied to the cluster), ``messages`` (default 10), ``workstations`` (3),
    ``migrate_at_ms`` (300), ``schedule`` (None -- a
    :data:`repro.faults.FAULT_SCHEDULES` name to run under faults),
    ``storm_rounds`` (32), ``tie_delay_us`` (1000), ``postmortem_dir`` /
    ``postmortem_context`` (arm a flight recorder and dump a bundle at
    run end -- the minimizer's repro-bundle path).
    """
    from repro.cluster import build_cluster
    from repro.errors import SendTimeoutError
    from repro.faults import FAULT_SCHEDULES, build_fault_plane
    from repro.faults.invariants import InvariantChecker
    from repro.ipc import Message
    from repro.kernel import (
        Compute,
        Delay,
        Priority,
        Receive,
        Reply,
        Send,
        Touch,
    )
    from repro.migration.manager import run_migration
    from repro.verify.mutation import get_mutation

    messages = int(config.get("messages", 10))
    n_ws = int(config.get("workstations", 3))
    migrate_at_us = int(config.get("migrate_at_ms", 300)) * 1000
    schedule = config.get("schedule")
    storm_rounds = int(config.get("storm_rounds", 32))
    tie_delay_us = int(config.get("tie_delay_us", 1000))

    plane = None
    if schedule is not None:
        recipe = FAULT_SCHEDULES.get(schedule)
        if recipe is None:
            raise SimulationError(
                f"unknown fault schedule {schedule!r}; "
                f"known: {', '.join(sorted(FAULT_SCHEDULES))}"
            )
        plane = build_fault_plane(recipe)

    cluster = build_cluster(n_workstations=n_ws, seed=seed, faults=plane,
                            **cluster_inputs(config.get("toggles")))
    mutation = config.get("mutation")
    if mutation:
        get_mutation(mutation)(cluster)
    sim = cluster.sim
    if collect_metrics:
        sim.metrics.enable()
    checker = InvariantChecker(cluster, strict=False).install(sim)
    recorder = None
    postmortem_dir = config.get("postmortem_dir")
    if postmortem_dir:
        from repro.obs.flight_recorder import FlightRecorder

        sim.trace.enable("*")
        sim.trace.use_ring_buffer(8192)
        sim.metrics.enable()
        recorder = FlightRecorder(
            postmortem_dir, cluster=cluster,
            context=dict(config.get("postmortem_context") or {}),
            mutations=[mutation] if mutation else [],
        ).attach(checker)

    # -- server: echo loop on ws1, touching pages so pre-copy is real --
    server_kernel = cluster.workstations[1].kernel
    server_lh = server_kernel.create_logical_host()
    server_kernel.allocate_space(server_lh, 64 * 1024, name="order-server")
    served: List[int] = []

    def server_body():
        while True:
            sender, msg = yield Receive()
            served.append(msg["n"])
            yield Compute(1_500)
            yield Touch(0, 12 * 1024)
            yield Reply(sender, msg.replying(n=msg["n"]))

    server_pcb = server_kernel.create_process(
        server_lh, server_body(), priority=Priority.LOCAL,
        name="order-server",
    )

    hard_stop = migrate_at_us + checker.grace_us + 2_500_000
    pace_us = max(15_000, hard_stop // (messages + 1))
    completed: List[int] = []

    def client_body():
        n = 0
        while n < messages and sim.now < hard_stop:
            try:
                reply = yield Send(server_pcb.pid, Message("req", n=n))
            except SendTimeoutError:
                continue
            completed.append(reply["n"])
            n += 1
            yield Delay(pace_us)

    client_kernel = cluster.workstations[0].kernel
    client_lh = client_kernel.create_logical_host()
    client_kernel.allocate_space(client_lh, 16 * 1024, name="order-client")
    client_kernel.create_process(
        client_lh, client_body(), priority=Priority.LOCAL,
        name="order-client",
    )

    mig_stats: List[Any] = []

    def mgr_body():
        yield Delay(migrate_at_us)
        lh = server_kernel.logical_hosts.get(server_lh.lhid)
        if lh is None or not lh.has_live_process():
            mig_stats.append(None)
            return
        stats = yield from run_migration(
            server_kernel, lh, max_attempts=3, retry_backoff_us=100_000,
        )
        mig_stats.append(stats)

    server_kernel.create_process(
        cluster.pm("ws1").pcb.logical_host, mgr_body(),
        priority=Priority.MIGRATION, name="order-mgr",
    )

    # -- tie storm: each round schedules twin timers with equal delays,
    # guaranteeing both a same-instant event collision AND a
    # same-instant timer cancel (whichever twin fires first cancels the
    # other at that instant).  The winning twin's index is the payload's
    # *order-sensitive probe*: outcome counts are permutation-invariant,
    # so without it a schedule perturbation would be invisible to the
    # digest -- with it, any same-instant transposition of the twins
    # changes the payload bytes while every protocol outcome stays put.
    storm_done: List[int] = []
    tie_winners: List[int] = []

    def storm_round(i):
        if i == storm_rounds:
            storm_done.append(storm_rounds)
            return
        twins: List[Any] = []
        for index in (0, 1):
            twins.append(sim.schedule(tie_delay_us, storm_tie, i, index, twins))

    def storm_tie(i, index, twins):
        twins[1 - index].cancel()
        tie_winners.append(index)
        sim.schedule(500, storm_round, i + 1)

    sim.schedule(0, storm_round, 0)

    sim.run(until_us=hard_stop)

    stats = mig_stats[0] if mig_stats else None
    migration = None
    if stats is not None:
        migration = {
            "success": stats.success,
            "attempts": stats.attempts,
            "error": stats.error,
            "freeze_us": stats.freeze_us,
            "precopy_rounds": stats.precopy_rounds,
            "dest_host": stats.dest_host,
        }
    result: Dict[str, Any] = {
        "schedule": schedule,
        "messages": messages,
        "completed": len(completed),
        "served": len(served),
        "storm_rounds": storm_done[0] if storm_done else 0,
        "tie_winners": tie_winners,
        "migration": migration,
        "faults": plane.stats() if plane is not None else {},
        "invariants": checker.summary(),
        "invariants_ok": checker.ok,
        "sim_time_us": sim.now,
        "events": sim.event_count,
        "packets": cluster.net.packets_sent,
    }
    if collect_metrics:
        result["metrics"] = sim.metrics.snapshot()
    if recorder is not None:
        recorder.dump(reason=config.get("postmortem_reason",
                                        "verify-repro"), checker=checker)
        result["postmortem"] = recorder.dumped
    return result


# --------------------------------------------------------------- cell wrapper

def run_cell_config(config: Dict[str, Any]) -> Dict[str, Any]:
    """Run one matrix cell in-process (the minimizer's probe path and
    the bundle-replay path call this directly; sweeps go through the
    registered ``verify_cell`` scenario)."""
    return verify_cell(config, int(config.get("base_seed", 0)))


@register_scenario("verify_cell")
def verify_cell(
    config: Dict[str, Any],
    seed: int,
    collect_metrics: bool = False,
    warm: Optional[dict] = None,
) -> Dict[str, Any]:
    """One differential cell: toggles + optional mutation/perturbation
    around a base scenario run at ``config["base_seed"]`` (the sweep
    ``seed`` is deliberately ignored -- every cell must replay the same
    scenario seed for the comparison to mean anything).

    Config: ``toggles`` (knob -> bool, only the deltas; forwarded to the
    scenario, which builds its cluster from them), ``base_seed``,
    ``scenario`` ("ordering"), ``scenario_config`` (forwarded),
    ``perturb`` (None or ``{"seed", "rate", "replay"}``), ``mutation``
    (None or a :mod:`repro.verify.mutation` name, forwarded: the
    scenario applies it to its cluster), plus the ``postmortem_*``
    passthroughs.
    """
    from repro.sim.engine import arm_perturber
    from repro.verify.mutation import get_mutation
    from repro.verify.perturb import TiePerturber

    toggles = dict(config.get("toggles") or {})
    base_seed = int(config.get("base_seed", 0))
    inner_name = config.get("scenario", "ordering")
    inner_cfg = dict(config.get("scenario_config") or {})
    inner_cfg["toggles"] = toggles
    for key in ("postmortem_dir", "postmortem_context", "postmortem_reason"):
        if config.get(key):
            inner_cfg[key] = config[key]
    perturb_cfg = config.get("perturb")
    mutation_name = config.get("mutation")
    if mutation_name:
        get_mutation(mutation_name)  # unknown names raise, not crash
        inner_cfg["mutation"] = mutation_name

    perturber = None
    crash: Optional[str] = None
    payload: Optional[Dict[str, Any]] = None
    try:
        if perturb_cfg:
            perturber = TiePerturber(
                seed=int(perturb_cfg.get("seed", 0)),
                rate=float(perturb_cfg.get("rate", 0.25)),
                replay=perturb_cfg.get("replay"),
            )
            arm_perturber(perturber)
        fn = get_scenario(inner_name)
        try:
            payload = fn(inner_cfg, base_seed, collect_metrics=False,
                         warm=warm)
        except Exception as exc:  # noqa: BLE001 - crashes are data here
            crash = f"{type(exc).__name__}: {exc}"
    finally:
        arm_perturber(None)

    result: Dict[str, Any] = {
        "toggles": {k: bool(v) for k, v in sorted(toggles.items())},
        "base_seed": base_seed,
        "scenario": inner_name,
        "mutation": mutation_name,
        "crash": crash,
        "payload": payload,
        "payload_sha256": canonical_digest(payload)
        if payload is not None else None,
        "perturb": perturber.describe() if perturber is not None else None,
    }
    if payload is not None:
        migration = payload.get("migration") or {}
        result["stable"] = {
            "completed": payload.get("completed"),
            "served": payload.get("served"),
            "migration_success": bool(migration.get("success")),
            "invariants_ok": bool(payload.get("invariants_ok")),
        }
        result["kpis"] = {name: payload.get(name) for name in KPI_FIELDS}
        result["invariants"] = payload.get("invariants", {})
        result["invariants_ok"] = bool(payload.get("invariants_ok"))
    else:
        result["stable"] = None
        result["kpis"] = None
        result["invariants"] = {}
        result["invariants_ok"] = False
    return result
