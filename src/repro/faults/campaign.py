"""Chaos campaigns: fault schedules × seeds, with invariant verdicts,
plus a differential pass over tie orders.

A campaign replays one scenario -- the migration-under-traffic workload
-- under each named fault schedule, once per seed, with the
:class:`~repro.faults.invariants.InvariantChecker` watching every event.
The per-run verdict (invariant violation counts, injected-fault counts,
migration outcome) is a plain JSON-able dict, so the whole campaign
rides the :mod:`repro.parallel` sweep engine and inherits its
serial ≡ parallel byte-identity guarantee: the same (schedule, seed)
grid produces the same verdict table no matter how many worker
processes ran it.

The differential pass (:func:`differential_pass`) runs the same
scenario lossless, with a tie storm, and then reruns it under
:data:`PASS_RERUNS` seeded same-instant tie permutations
(:class:`~repro.faults.perturb.TiePerturber`): the paper's protocol
must not lean on the event core's tie order, so every rerun must match
the lossless run's stable outcomes.

``python -m repro chaos`` is the CLI face; ``make chaos-smoke`` and the
CI job run a fixed-seed campaign with its pass and fail on any
violation.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.faults.invariants import INVARIANTS, InvariantChecker
from repro.faults.models import (
    BurstDropFault,
    CorruptFault,
    DropFault,
    DuplicateFault,
    FaultPlane,
    ReorderFault,
)
from repro.faults.perturb import TiePerturber
from repro.faults.schedule import CrashEvent, CrashSchedule, break_rebinding
from repro.parallel.scenarios import register_scenario
from repro.parallel.spec import SweepSpec
from repro.sim.random import derive_seed

#: Named fault schedules a campaign sweeps over.  Each is a recipe:
#: per-delivery model rates plus an optional host crash-and-reboot.
#: Rates are deliberately harsh -- several orders above any real
#: Ethernet -- because the campaign's question is "do the invariants
#: hold under abuse", not "is the network nice".
FAULT_SCHEDULES: Dict[str, Dict[str, Any]] = {
    "drop": {"drop": 0.05},
    "burst": {"burst": (0.02, 0.30)},
    "duplicate": {"duplicate": 0.10},
    "reorder": {"reorder": 0.15},
    "corrupt": {"corrupt": 0.05},
    "crash": {"drop": 0.02, "crash_at_ms": 700, "crash_down_ms": 600},
    "mixed": {"drop": 0.03, "duplicate": 0.05, "reorder": 0.08,
              "corrupt": 0.02},
}


#: The delay of both twin timers of one tie-storm round.
TIE_DELAY_US = 1000

#: The differential pass: tie-perturbed reruns of its lossless unit,
#: and the tie-storm rounds every pass record runs (the storm is what
#: gives a perturbation same-instant ties to swap).
PASS_RERUNS = 4
PASS_STORM_ROUNDS = 32


def schedule_names() -> List[str]:
    return sorted(FAULT_SCHEDULES)


def build_fault_plane(recipe: Dict[str, Any]) -> FaultPlane:
    """A fault plane from a schedule recipe.  Models are appended in a
    fixed order (drop, burst, duplicate, reorder, corrupt) so the
    pipeline -- and therefore the trajectory -- depends only on the
    recipe, never on dict iteration accidents."""
    plane = FaultPlane()
    if "drop" in recipe:
        plane.add(DropFault(recipe["drop"]))
    if "burst" in recipe:
        g2b, b2g = recipe["burst"]
        plane.add(BurstDropFault(g2b, b2g))
    if "duplicate" in recipe:
        plane.add(DuplicateFault(recipe["duplicate"]))
    if "reorder" in recipe:
        plane.add(ReorderFault(recipe["reorder"]))
    if "corrupt" in recipe:
        plane.add(CorruptFault(recipe["corrupt"]))
    return plane


@register_scenario("chaos")
def chaos_scenario(
    config: Dict[str, Any],
    seed: int,
    collect_metrics: bool = False,
    warm: Optional[dict] = None,
) -> Dict[str, Any]:
    """One chaos run: a client on ws0 streams echo requests at a server
    program on ws1 while the server's logical host is migrated off its
    workstation, optionally under a named fault schedule, with the
    invariant harness watching every event.  This is the one
    echo-under-migration workload: every campaign unit and every record
    of the differential pass run it.

    Config: ``schedule`` (a :data:`FAULT_SCHEDULES` name, default
    "drop"; None runs a lossless cluster with no fault plane),
    ``messages`` (default 30), ``workstations`` (4),
    ``migrate_at_ms`` (400), ``break_rebinding`` (False -- apply
    :func:`repro.faults.schedule.break_rebinding`, which must trip
    no-residual-dependency),
    ``storm_rounds`` (0 -- rounds of
    the same-instant tie storm, see below), ``perturber`` (None -- a
    :class:`repro.faults.perturb.TiePerturber` the cluster's simulator
    is built with), ``postmortem_dir`` (None -- arm a
    flight recorder: tracing + metrics on, and the first invariant
    violation dumps a postmortem bundle there.  Used by the replay
    path, not by campaign sweeps, so the verdict payload stays
    byte-identical with or without it).
    """
    from repro.cluster import build_cluster, install_cluster_supervisor
    from repro.errors import SendTimeoutError
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
    from repro.services.program_manager import AcceptPolicy

    schedule = config.get("schedule", "drop")
    recipe = {} if schedule is None else FAULT_SCHEDULES.get(schedule)
    if recipe is None:
        raise SimulationError(
            f"unknown fault schedule {schedule!r}; "
            f"known: {', '.join(schedule_names())}"
        )
    messages = int(config.get("messages", 30))
    n_ws = int(config.get("workstations", 4))
    migrate_at_us = int(config.get("migrate_at_ms", 400)) * 1000
    rebinding_broken = bool(config.get("break_rebinding", False))
    storm_rounds = int(config.get("storm_rounds", 0))

    plane = build_fault_plane(recipe) if schedule is not None else None
    cluster = build_cluster(
        n_workstations=n_ws, seed=seed, faults=plane,
        perturber=config.get("perturber"),
    )
    # The client's workstation is in its owner's use, and its program
    # manager takes no remote work then: the server never migrates onto
    # the client's own host, so every run leaves the client a binding
    # to rebind.
    cluster.workstations[0].owner_active = True
    cluster.pm("ws0").policy = AcceptPolicy(accept_when_owner_active=False)
    sim = cluster.sim
    if collect_metrics:
        sim.metrics.enable()
    checker = InvariantChecker(cluster, strict=False).install(sim)
    recorder = None
    postmortem_dir = config.get("postmortem_dir")
    if postmortem_dir:
        # Armed replay of a failing run: turn the full observability
        # stack on so the bundle has something to say, and dump on the
        # first violation.
        from repro.obs.flight_recorder import FlightRecorder

        sim.trace.enable("*")
        sim.trace.use_ring_buffer(8192)
        sim.metrics.enable()
        recorder = FlightRecorder(
            postmortem_dir, cluster=cluster,
            context={
                "scenario": "chaos",
                "schedule": schedule,
                "seed": seed,
                "recipe": recipe,
                "config": {k: v for k, v in sorted(config.items())},
            },
        ).attach(checker)
    supervisor = install_cluster_supervisor(cluster)
    crashes: Optional[CrashSchedule] = None
    if "crash_at_ms" in recipe:
        # Crash-and-reboot the last workstation; the migration offer may
        # pick it as destination, exercising abort + rollback + retry.
        crashes = CrashSchedule([
            CrashEvent(
                at_us=recipe["crash_at_ms"] * 1000,
                host=f"ws{n_ws - 1}",
                down_us=recipe["crash_down_ms"] * 1000,
            )
        ]).install(cluster)
    if rebinding_broken:
        break_rebinding(cluster)

    # -- workload: server on ws1, client on ws0, migration mid-stream ----
    server_kernel = cluster.workstations[1].kernel
    server_lh = server_kernel.create_logical_host()
    server_kernel.allocate_space(server_lh, 96 * 1024, name="chaos-server")
    served: List[int] = []

    def server_body():
        while True:
            sender, msg = yield Receive()
            served.append(msg["n"])
            yield Compute(2_000)
            yield Touch(0, 16 * 1024)  # keep pre-copy rounds non-trivial
            yield Reply(sender, msg.replying(n=msg["n"]))

    server_pcb = server_kernel.create_process(
        server_lh, server_body(), priority=Priority.LOCAL,
        name="chaos-server",
    )

    # Run past commit + grace so residual dependencies have time to show.
    hard_stop = migrate_at_us + checker.grace_us + 3_000_000
    # Pace the client across the whole window: requests must continue
    # well after the migration commits, or no-residual-dependency (and
    # post-migration at-most-once) would never be exercised.
    pace_us = max(15_000, hard_stop // (messages + 1))
    completed: List[int] = []

    def client_body():
        n = 0
        while n < messages and sim.now < hard_stop:
            try:
                reply = yield Send(server_pcb.pid, Message("req", n=n))
            except SendTimeoutError:
                continue  # keep hammering: stale senders must be NAKed over
            completed.append(reply["n"])
            n += 1
            yield Delay(pace_us)

    client_kernel = cluster.workstations[0].kernel
    client_lh = client_kernel.create_logical_host()
    client_kernel.allocate_space(client_lh, 16 * 1024, name="chaos-client")
    client_kernel.create_process(
        client_lh, client_body(), priority=Priority.LOCAL,
        name="chaos-client",
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
        priority=Priority.MIGRATION, name="chaos-mgr",
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
            twins.append(sim.schedule(TIE_DELAY_US, storm_tie, i, index,
                                      twins))

    def storm_tie(i, index, twins):
        twins[1 - index].cancel()
        tie_winners.append(index)
        sim.schedule(500, storm_round, i + 1)

    if storm_rounds:
        sim.schedule(0, storm_round, 0)

    sim.run(until_us=hard_stop)
    supervisor.stop()

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
        "break_rebinding": rebinding_broken,
        "messages": messages,
        "completed": len(completed),
        "served": len(served),
        "migration": migration,
        "faults": plane.stats() if plane is not None else {},
        "crash_log": [list(entry) for entry in crashes.log] if crashes else [],
        "evictions": len(supervisor.evictions),
        "bindings_scrubbed": supervisor.bindings_scrubbed,
        "invariants": checker.summary(),
        "invariants_ok": checker.ok,
        "deliveries_checked": checker.deliveries_checked,
        "events_checked": checker.events_checked,
        "sim_time_us": sim.now,
        "events": sim.event_count,
        "packets": cluster.net.packets_sent,
    }
    if collect_metrics:
        result["metrics"] = sim.metrics.snapshot()
    if recorder is not None:
        result["postmortem"] = recorder.dumped
    if storm_rounds:
        result["storm_rounds"] = storm_done[0] if storm_done else 0
        result["tie_winners"] = tie_winners
    return result


# ----------------------------------------------------------------- campaign

def campaign_spec(
    schedules: Optional[Sequence[str]] = None,
    seeds: int = 10,
    master_seed: int = 0,
    workers: int = 1,
    messages: int = 30,
    break_rebinding: bool = False,
    collect_metrics: bool = False,
) -> SweepSpec:
    """The sweep spec for a chaos campaign: one config per schedule,
    ``seeds`` replications each (seeded by sweep coordinates, so the
    verdict table is a pure function of this spec).  A campaign whose
    client sends nothing cannot trip an invariant, so ``messages`` must
    be at least 1; a schedule listed twice is refused too."""
    if messages < 1:
        raise SimulationError(
            f"a campaign needs at least one message per run, got {messages}"
        )
    names = list(schedules) if schedules else schedule_names()
    for name in names:
        if name not in FAULT_SCHEDULES:
            raise SimulationError(
                f"unknown fault schedule {name!r}; "
                f"known: {', '.join(schedule_names())}"
            )
    if len(set(names)) != len(names):
        raise SimulationError(f"a fault schedule is listed twice: {names}")
    configs = tuple(
        {
            "schedule": name,
            "messages": messages,
            "break_rebinding": break_rebinding,
        }
        for name in names
    )
    return SweepSpec(
        scenario="chaos",
        configs=configs,
        replications=seeds,
        master_seed=master_seed,
        workers=workers,
        collect_metrics=collect_metrics,
    )


def run_campaign(**kwargs) -> "SweepResult":
    """Run a chaos campaign (see :func:`campaign_spec` for the knobs)."""
    from repro.parallel import run_sweep

    return run_sweep(campaign_spec(**kwargs))


def verdict_table(result) -> str:
    """The campaign verdict as a fixed-width table: one row per
    schedule, aggregated over its seeds.  Built only from the sweep's
    deterministic payload, so serial and parallel runs render the same
    bytes."""
    headers = (
        ["schedule", "runs", "ok", "migrated", "faults"]
        + [name for name in INVARIANTS]
    )
    rows: List[List[str]] = []
    total_violations = 0
    for ci, config in enumerate(result.spec.configs):
        runs = result.rows[ci]
        counts = {name: 0 for name in INVARIANTS}
        ok = migrated = faults = 0
        for run in runs:
            for name, n in run["invariants"].items():
                counts[name] = counts.get(name, 0) + n
            ok += 1 if run["invariants_ok"] else 0
            mig = run.get("migration")
            migrated += 1 if (mig and mig["success"]) else 0
            faults += sum(run["faults"].values())
        total_violations += sum(counts.values())
        rows.append(
            [config["schedule"], str(len(runs)), f"{ok}/{len(runs)}",
             str(migrated), str(faults)]
            + [str(counts[name]) for name in INVARIANTS]
        )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    verdict = "PASS" if total_violations == 0 else "FAIL"
    lines.append(f"verdict: {verdict} ({total_violations} violation(s))")
    return "\n".join(lines)


def campaign_ok(result) -> bool:
    """Whether every run of the campaign held every invariant."""
    return all(
        run["invariants_ok"] for row in result.rows for run in row
    )


def replay_failing_run(result, postmortem_dir: str) -> Optional[str]:
    """Re-run the campaign's first invariant-violating unit with the
    flight recorder armed; returns the bundle directory (None when the
    campaign was clean).

    Sweep seeds are a pure function of the grid coordinates, so the
    replay -- same config, same ``spec.unit_seed(ci, ri)`` -- retraces
    the failing trajectory exactly; only the observability stack (and
    the bundle on disk) is new.
    """
    spec = result.spec
    for ci, row in enumerate(result.rows):
        for ri, run in enumerate(row):
            if run["invariants_ok"]:
                continue
            config = dict(spec.configs[ci])
            config["postmortem_dir"] = postmortem_dir
            replay = chaos_scenario(config, spec.unit_seed(ci, ri))
            return replay.get("postmortem")
    return None


# --------------------------------------------------------- differential pass

def canonical_digest(payload: Any) -> str:
    """SHA-256 over the canonical JSON encoding of ``payload`` -- the
    byte-identity test two runs of the same unit must pass."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def stable_outcome(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The outcome fields no same-instant tie order may move."""
    migration = payload["migration"] or {}
    return {
        "completed": payload["completed"],
        "served": payload["served"],
        "migration_success": bool(migration.get("success")),
        "invariants_ok": payload["invariants_ok"],
    }


def differential_pass(
    master_seed: int = 0,
    messages: int = 30,
    break_rebinding: bool = False,
) -> Dict[str, Any]:
    """The lossless unit at ``master_seed`` (no fault plane, a
    :data:`PASS_STORM_ROUNDS`-round tie storm), then :data:`PASS_RERUNS`
    reruns of it, rerun ``i`` under a :class:`TiePerturber` seeded
    ``derive_seed(master_seed, "verify:perturb:<i>")``.

    Every record must hold every invariant, and every rerun must match
    the lossless record on the stable outcome fields (completed,
    served, migration success, invariant verdict); event counts and
    the payload digest may move.  A lossless run draws nothing from its
    seed, so ``master_seed`` moves only the perturber seeds.  Runs
    in-process and serially; a crash propagates, as it does for a
    campaign unit."""
    config = {"schedule": None, "messages": messages,
              "break_rebinding": break_rebinding,
              "storm_rounds": PASS_STORM_ROUNDS}
    records: List[Dict[str, Any]] = []
    for i in range(-1, PASS_RERUNS):
        perturber = None if i < 0 else TiePerturber(
            derive_seed(master_seed, f"verify:perturb:{i}"), rate=0.25)
        payload = chaos_scenario(dict(config, perturber=perturber),
                                 master_seed)
        failures = []
        if not payload["invariants_ok"]:
            violated = {k: v for k, v in payload["invariants"].items() if v}
            failures.append(f"invariant violations: {violated}")
        stable = stable_outcome(payload)
        if records and stable != records[0]["stable"]:
            failures.append(f"stable outcome fields differ: {stable} != "
                            f"lossless {records[0]['stable']}")
        records.append({
            "label": "lossless" if perturber is None else f"perturb:{i}",
            "perturb": perturber.describe() if perturber else None,
            "payload": payload,
            "payload_sha256": canonical_digest(payload),
            "stable": stable,
            "failures": failures,
        })
    return {
        "master_seed": master_seed,
        "records": records,
        "ok": not any(record["failures"] for record in records),
    }


def pass_table(result: Dict[str, Any]) -> str:
    """The differential pass as text: one line per record (label,
    swaps taken, payload digest prefix, verdict), each failure reason
    under its record, then the pass's verdict."""
    lines = [f"differential pass: the lossless unit and {PASS_RERUNS} "
             f"tie-perturbed reruns, seed {result['master_seed']}"]
    for record in result["records"]:
        swaps = len(record["perturb"]["swaps"]) if record["perturb"] else 0
        lines.append(
            f"  {record['label']:<10} swaps {swaps:<4} "
            f"{record['payload_sha256'][:12]}  "
            + ("FAIL" if record["failures"] else "ok"))
        lines.extend(f"    - {reason}" for reason in record["failures"])
    failed = sum(1 for record in result["records"] if record["failures"])
    lines.append(f"differential verdict: {'FAIL' if failed else 'PASS'} "
                 f"({failed} of {len(result['records'])} record(s) failed)")
    return "\n".join(lines)
