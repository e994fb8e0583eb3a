"""RunReport diffing: per-metric deltas, subsystem attribution.

Given two RunReports (:mod:`repro.obs.report`) -- typically a baseline
and a fresh run, or two programs migrated in the same scenario -- this
module answers the two questions a regression hunt starts with:

* **which metrics moved, and by how much?**  Every cluster-level metric
  is flattened to scalars (counter -> ``name``; histogram ->
  ``name.count`` / ``name.total``; gauge aggregate -> ``name.sum`` /
  ``name.max``) and compared under a tolerance: a delta is *within*
  tolerance when ``|delta| <= max(abs_tol, rel_tol * max(|a|, |b|))``.
* **which subsystem ate the time?**  Metric names are bucketed by
  prefix (``ipc.`` -> ipc, ``mig.`` -> migration, ...)
  and every ``*_us`` time metric's delta is accumulated per subsystem,
  ranking subsystems by their contribution to the total simulated-time
  delta -- the Table 4-1 attribution loop, automated.

KPIs and the freeze-phase accounting are diffed too; the ``wall``
section (wall-clock throughput) is deliberately ignored -- it measures
the machine the report was produced on, not the simulation.

``python -m repro diff A.json B.json`` renders the result as a table
(or ``--json``) and exits 0 when every gated delta is within tolerance,
1 otherwise -- the contract ``make report-smoke`` and CI build on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: The comparison-CLI exit-code contract, shared by ``repro diff`` and
#: ``repro verify`` (and asserted by ``tests/test_cli_errors.py``):
#: 0 = compared clean (within tolerance / every cell held its class),
#: 1 = compared and found a real difference (beyond tolerance / at
#: least one cell broke its equivalence class),
#: 2 = never compared (usage error: bad arguments, unreadable or
#: unwritable files, unknown schedule/mutation names).
#: Scripts can therefore distinguish "regression" from "broken
#: invocation" -- CI gates on 1, not on 2.
EXIT_OK = 0
EXIT_DIFFERENT = 1
EXIT_USAGE = 2

#: Metric-name prefix -> subsystem bucket for attribution.
SUBSYSTEMS = {
    "kernel": "kernel",
    "sched": "scheduler",
    "ipc": "ipc",
    "mig": "migration",
    "net": "network",
    "vm": "vm",
    "cluster": "cluster",
    "faults": "faults",
    "engine": "engine",
}


def subsystem_of(metric: str) -> str:
    """The subsystem bucket a metric name belongs to (by prefix)."""
    return SUBSYSTEMS.get(metric.split(".", 1)[0], "other")


def _flatten_metrics(report: Dict[str, Any]) -> Dict[str, Any]:
    """Cluster-level metrics as a flat ``{name: scalar}`` dict."""
    flat: Dict[str, Any] = {}
    cluster = report.get("metrics", {}).get("cluster", {})
    for name, value in cluster.items():
        if isinstance(value, dict):
            if "buckets" in value:  # histogram snapshot
                flat[f"{name}.count"] = value.get("count", 0)
                flat[f"{name}.total"] = value.get("total", 0)
            else:  # gauge aggregate {"sum", "max"}
                for field in ("sum", "max"):
                    if field in value:
                        flat[f"{name}.{field}"] = value[field]
        else:
            flat[name] = value
    return flat


def _is_time_metric(name: str) -> bool:
    """True for metrics measured in simulated microseconds.  For
    flattened histograms/gauges only the ``.total``/``.sum`` legs carry
    time -- ``.count`` and ``.max`` legs of a ``*_us`` series do not
    sum.  Counters like ``sched.cpu_us.remote`` (a ``_us`` family with
    a sub-label) count too."""
    base, _, field = name.rpartition(".")
    if field in ("count", "max"):
        return False
    if field in ("total", "sum"):
        name = base
    return name.endswith("_us") or "_us." in name


def _entry(a, b, *, abs_tol: float, rel_tol: float) -> Dict[str, Any]:
    numeric = isinstance(a, (int, float)) and isinstance(b, (int, float)) \
        and not isinstance(a, bool) and not isinstance(b, bool)
    if not numeric:
        return {"a": a, "b": b, "delta": None, "rel": None, "within": a == b}
    delta = b - a
    scale = max(abs(a), abs(b))
    rel = (delta / scale) if scale else 0.0
    within = abs(delta) <= max(abs_tol, rel_tol * scale)
    return {"a": a, "b": b, "delta": delta, "rel": round(rel, 6),
            "within": within}


def diff_reports(
    report_a: Dict[str, Any],
    report_b: Dict[str, Any],
    *,
    rel_tol: float = 0.01,
    abs_tol: float = 0.0,
) -> Dict[str, Any]:
    """Compare two RunReports.

    Returns ``{"ok", "tolerance", "metrics", "kpis",
    "subsystems", "total_time_delta_us"}``:

    * ``metrics``/``kpis``: per-name entries ``{a, b, delta, rel,
      within}``, sorted by descending ``|delta|`` significance when
      rendered.  Names present on one side only are compared against 0
      (counters) or reported with ``a``/``b`` = None (non-numeric).
    * ``subsystems``: per-bucket ``{time_delta_us, count_delta,
      metrics}`` where ``time_delta_us`` sums the deltas of every
      ``*_us`` metric in the bucket and ``metrics`` lists the bucket's
      movers (beyond tolerance first, by ``|delta|``).
    * ``ok``: True iff every gated comparison is within tolerance;
      the ``wall`` sections are never compared at all.
    """
    flat_a = _flatten_metrics(report_a)
    flat_b = _flatten_metrics(report_b)
    metrics: Dict[str, Dict[str, Any]] = {}
    for name in sorted(set(flat_a) | set(flat_b)):
        a, b = flat_a.get(name), flat_b.get(name)
        if a is None and isinstance(b, (int, float)):
            a = 0
        if b is None and isinstance(a, (int, float)):
            b = 0
        metrics[name] = _entry(a, b, abs_tol=abs_tol, rel_tol=rel_tol)

    kpis: Dict[str, Dict[str, Any]] = {}
    kpis_a = report_a.get("kpis", {})
    kpis_b = report_b.get("kpis", {})
    for name in sorted(set(kpis_a) | set(kpis_b)):
        kpis[name] = _entry(kpis_a.get(name), kpis_b.get(name),
                            abs_tol=abs_tol, rel_tol=rel_tol)

    subsystems: Dict[str, Dict[str, Any]] = {}
    for name, entry in metrics.items():
        bucket = subsystems.setdefault(
            subsystem_of(name),
            {"time_delta_us": 0, "count_delta": 0, "metrics": []},
        )
        delta = entry["delta"]
        if delta:
            bucket["metrics"].append(name)
            if _is_time_metric(name):
                bucket["time_delta_us"] += delta
            else:
                bucket["count_delta"] += abs(delta)
    for bucket in subsystems.values():
        bucket["metrics"].sort(
            key=lambda n: (metrics[n]["within"], -abs(metrics[n]["delta"]))
        )
    # Rank by time moved; tie-break on non-time churn so pure counter
    # subsystems still order deterministically.
    subsystems = dict(sorted(
        subsystems.items(),
        key=lambda kv: (-abs(kv[1]["time_delta_us"]),
                        -kv[1]["count_delta"], kv[0]),
    ))
    total_time_delta = sum(b["time_delta_us"] for b in subsystems.values())

    ok = all(e["within"] for e in metrics.values()) and \
        all(e["within"] for e in kpis.values())
    return {
        "ok": ok,
        "tolerance": {"rel": rel_tol, "abs": abs_tol},
        "metrics": metrics,
        "kpis": kpis,
        "subsystems": subsystems,
        "total_time_delta_us": total_time_delta,
    }


# ------------------------------------------------------------- rendering

def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:,.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def _table(header: List[str], body: List[List[str]]) -> List[str]:
    widths = [max(len(header[i]), *(len(r[i]) for r in body))
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
             "  ".join("-" * w for w in widths)]
    for row in body:
        lines.append("  ".join(c.ljust(w)
                               for c, w in zip(row, widths)).rstrip())
    return lines


def render_diff(diff: Dict[str, Any], *, max_rows: int = 20) -> str:
    """The diff as a human-readable report: subsystem ranking first,
    then the top metric/KPI movers (out-of-tolerance rows flagged)."""
    lines: List[str] = []
    tol = diff["tolerance"]
    verdict = "WITHIN TOLERANCE" if diff["ok"] else "BEYOND TOLERANCE"
    lines.append(f"report diff: {verdict} "
                 f"(rel {tol['rel'] * 100:g}%, abs {tol['abs']:g})")
    lines.append(f"  total time delta: "
                 f"{diff['total_time_delta_us']:+,} sim-us")

    ranked = [(name, b) for name, b in diff["subsystems"].items()
              if b["time_delta_us"] or b["count_delta"]]
    if ranked:
        lines.append("")
        lines.append("subsystem attribution (by |time delta|):")
        body = []
        for name, bucket in ranked:
            top = bucket["metrics"][0] if bucket["metrics"] else "-"
            body.append([
                name, f"{bucket['time_delta_us']:+,}",
                f"{bucket['count_delta']:,}", top,
            ])
        lines.extend("  " + line for line in _table(
            ["subsystem", "time_delta_us", "count_churn", "top_mover"], body
        ))

    movers: List[Tuple[str, str, Dict[str, Any]]] = []
    for section in ("metrics", "kpis"):
        for name, entry in diff[section].items():
            if entry["delta"] or not entry["within"]:
                movers.append((section, name, entry))
    movers.sort(key=lambda m: (m[2]["within"],
                               -abs(m[2]["delta"] or 0)))
    if movers:
        lines.append("")
        lines.append(f"movers (top {min(max_rows, len(movers))} "
                     f"of {len(movers)}):")
        body = []
        for section, name, entry in movers[:max_rows]:
            body.append([
                "!" if not entry["within"] else "",
                f"{section[:-1]}:{name}" if section == "kpis" else name,
                _fmt(entry["a"]), _fmt(entry["b"]),
                _fmt(entry["delta"]),
                f"{entry['rel'] * 100:+.2f}%" if entry["rel"] is not None
                else "-",
            ])
        lines.extend("  " + line for line in _table(
            ["", "metric", "a", "b", "delta", "rel"], body
        ))
    else:
        lines.append("  no metric or KPI moved")
    return "\n".join(lines)
