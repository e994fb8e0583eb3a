"""Versioned RunReport artifacts: one JSON per run, diffable later.

A RunReport is the repository's standard answer to "what did that run
do, and under which knobs?" -- the artifact :mod:`repro.obs.diff`
consumes to attribute regressions.  One dict (written as JSON) captures:

* the **envelope**: schema version, run kind, seed and scenario config;
* the **metrics snapshot** (:meth:`MetricsRegistry.snapshot` or the
  sweep engine's cross-worker merge);
* the **span profile** and **phase breakdowns**
  (:mod:`repro.obs.critical_path`) -- for a migration run, the freeze
  span decomposed into its residual-copy children plus ``(self)``,
  checked to sum to ``MigrationStats.freeze_us`` within 1%;
* derived **KPIs** (freeze ms, pages copied, rounds, packets, ...) plus
  a separate ``wall`` section for wall-clock figures
  (sim-us per wall-second) that deliberately stays *outside* the
  diff engine's tolerance gates -- wall clock is machine truth, not
  simulation truth.

``python -m repro report`` emits one for the instrumented migration
scenario; ``python -m repro sweep/chaos --report`` emit them for whole
sweeps via :meth:`SweepResult.run_report`.  Reports are versioned:
:func:`load_report` refuses payloads newer than this code understands.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Optional, Union

from repro.config import PAGE_SIZE
from repro.errors import SimulationError
from repro.obs.critical_path import critical_path, phase_breakdown, span_profile

#: Bumped whenever the report layout changes incompatibly.
RUN_REPORT_VERSION = 1


def new_report(kind: str, *, seed: int,
               config: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The common envelope every report starts from: version, kind,
    seed and config."""
    return {
        "run_report_version": RUN_REPORT_VERSION,
        "kind": kind,
        "seed": seed,
        "config": dict(config or {}),
    }


def build_migration_report(
    cluster,
    stats,
    *,
    seed: int,
    program: str,
    profiler=None,
) -> Dict[str, Any]:
    """A RunReport for one instrumented migration (the ``python -m repro
    report`` scenario): metrics snapshot, span profile, critical path,
    migrate/freeze phase breakdowns and the derived KPIs.

    The ``checks.freeze_decomposition_ok`` field asserts the paper-style
    phase accounting: the freeze spans' phases (residual copies +
    ``(self)``) must sum to ``stats.freeze_us`` within 1%.
    """
    sim = cluster.sim
    tracer = sim.trace
    report = new_report("migration", seed=seed, config={"program": program})

    roots = tracer.find_spans("migration", "migrate")
    root = roots[-1] if roots else None
    phases: Dict[str, Any] = {}
    path: list = []
    if root is not None and root.end_us is not None:
        phases["migrate"] = phase_breakdown(tracer, root.span_id)
        path = [
            {"category": s.category, "name": s.name,
             "start_us": s.start_us, "duration_us": s.duration_us}
            for s in critical_path(tracer, root.span_id)
        ]
    freeze_spans = [
        s for s in tracer.find_spans("migration", "freeze")
        if s.end_us is not None
    ]
    freeze_phase_sum = 0
    if freeze_spans:
        # One migration may freeze once per attempt; stats.freeze_us
        # accumulates across attempts, so the check sums every freeze
        # span's full decomposition.
        breakdowns = [phase_breakdown(tracer, s.span_id) for s in freeze_spans]
        phases["freeze"] = breakdowns[-1]
        freeze_phase_sum = sum(
            p["us"] for b in breakdowns for p in b["phases"]
        )
    freeze_ok = (
        abs(freeze_phase_sum - stats.freeze_us)
        <= max(1, round(0.01 * stats.freeze_us))
    )

    kpis: Dict[str, Any] = {
        "success": stats.success,
        "attempts": stats.attempts,
        "freeze_us": stats.freeze_us,
        "total_us": stats.total_us,
        "precopy_rounds": stats.precopy_rounds,
        "pages_copied": stats.total_copied_bytes // PAGE_SIZE,
        "residual_pages": stats.residual_pages,
        "sim_time_us": sim.now,
        "events": sim.event_count,
        "packets": cluster.net.packets_sent,
    }

    report.update({
        "metrics": sim.metrics.snapshot(),
        "span_profile": span_profile(tracer),
        "critical_path": path,
        "phases": phases,
        "checks": {
            "freeze_us": stats.freeze_us,
            "freeze_phase_sum_us": freeze_phase_sum,
            "freeze_decomposition_ok": freeze_ok,
        },
        "kpis": kpis,
    })
    if sim.invariants is not None:
        report["invariants"] = sim.invariants.summary()
    if profiler is not None:
        prof = profiler.report()
        report["wall"] = {
            "wall_s": prof["wall_s"],
            "sim_us_per_wall_s": prof["modeled_us_per_wall_s"],
        }
    return report


def sweep_run_report(result, kind: str = "sweep") -> Dict[str, Any]:
    """A RunReport for a whole sweep/chaos campaign: the envelope plus
    per-run rollups and the merged cross-worker metrics (when the sweep
    collected them).  Built only from the deterministic payload, so it
    inherits the serial ≡ parallel byte-identity."""
    spec = result.spec
    report = new_report(kind, seed=spec.master_seed, config={
        "scenario": spec.scenario,
        "configs": [dict(c) for c in spec.configs],
        "replications": spec.replications,
    })
    runs = [r for row in result.rows for r in row]
    kpis: Dict[str, Any] = {
        "runs": len(runs),
        "sim_time_us_total": sum(r.get("sim_time_us", 0) for r in runs),
        "events_total": sum(r.get("events", 0) for r in runs),
    }
    migrations = [r["migration"] for r in runs if r.get("migration")]
    if migrations:
        kpis["migrations"] = len(migrations)
        kpis["migrations_ok"] = sum(1 for m in migrations if m["success"])
        kpis["freeze_us_total"] = sum(m["freeze_us"] for m in migrations)
    if any("invariants" in r for r in runs):
        totals: Dict[str, int] = {}
        for r in runs:
            for name, n in r.get("invariants", {}).items():
                totals[name] = totals.get(name, 0) + n
        report["invariants"] = totals
        kpis["invariants_ok_runs"] = sum(
            1 for r in runs if r.get("invariants_ok", True)
        )
    report["kpis"] = kpis
    if result.metrics is not None:
        report["metrics"] = result.metrics
    return report


# ----------------------------------------------------------------- I/O

def write_report(report: Dict[str, Any],
                 out: Union[str, IO[str]]) -> Dict[str, Any]:
    """Write a report as canonical JSON (sorted keys); returns it."""
    text = json.dumps(report, indent=2, sort_keys=True)
    if hasattr(out, "write"):
        out.write(text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return report


def load_report(path: str) -> Dict[str, Any]:
    """Read a report back, refusing unversioned or too-new payloads."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SimulationError(f"cannot read run report {path!r}: {exc}")
    version = payload.get("run_report_version") if isinstance(payload, dict) \
        else None
    if not isinstance(version, int):
        raise SimulationError(
            f"{path!r} is not a run report (no run_report_version)"
        )
    if version > RUN_REPORT_VERSION:
        raise SimulationError(
            f"run report {path!r} is version {version}; this build "
            f"understands <= {RUN_REPORT_VERSION}"
        )
    return payload


def render_report(report: Dict[str, Any]) -> str:
    """A one-screen human summary of a report."""
    from repro.obs.critical_path import render_breakdown

    kind = report.get("kind", "?")
    kpis = report.get("kpis", {})
    lines = [f"run report v{report.get('run_report_version')} "
             f"[{kind}] seed={report.get('seed')}"]
    for name in sorted(kpis):
        lines.append(f"  kpi {name:24s} {kpis[name]}")
    for name, breakdown in sorted(report.get("phases", {}).items()):
        lines.append(f"  {render_breakdown(breakdown)}")
    checks = report.get("checks")
    if checks:
        verdict = "ok" if checks.get("freeze_decomposition_ok") else "MISMATCH"
        lines.append(
            f"  freeze accounting: phases {checks['freeze_phase_sum_us']} us "
            f"vs stats {checks['freeze_us']} us [{verdict}]"
        )
    path = report.get("critical_path")
    if path:
        lines.append("  critical path: " +
                     " > ".join(p["name"] for p in path))
    wall = report.get("wall")
    if wall:
        lines.append(f"  wall: {wall['sim_us_per_wall_s']:,} sim-us/wall-s "
                     "(informational; never diffed)")
    return "\n".join(lines)
