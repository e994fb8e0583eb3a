"""The toggle-matrix explorer: cells, equivalence classes, verdicts.

A *cell* is one configuration of the differential harness: a toggle
vector (only the deltas from the shipped defaults), an optional fault
schedule, an optional schedule perturbation, and the *equivalence
class* the cell's payload is expected to fall into relative to the
baseline cell (all defaults, same seed):

``byte``
    Trajectory-preserving deltas only (the ``fastpath`` block, i.e. the
    event core): the payload must be **byte-identical** to the
    baseline (:func:`repro.verify.scenario.canonical_digest`).
``tolerant``
    Copy-plane deltas change which packets exist: the four stable
    outcome fields must match exactly, invariants must hold, and the
    KPI scalars must agree within the ``repro diff`` tolerance formula
    (generous by default -- burst coalescing roughly halves packet
    counts by design; the tolerance trips on order-of-magnitude
    regressions, not protocol-mode differences).
``perturb``
    Same toggles, fuzzed same-instant ordering: outcomes and invariants
    must survive any tie permutation, but event counts may wiggle.
``fault``
    Runs under a fault schedule: only the invariants (and no crash) are
    required -- outcome counts legitimately depend on what the faults
    ate.

Cells ride the :mod:`repro.parallel` sweep pool (one cell = one sweep
config, one replication), so exploration parallelizes and inherits the
serial ≡ parallel byte-identity guarantee.  Every cell carries the same
``base_seed``; the sweep's per-unit seeds are deliberately ignored.

``REPRO_VERIFY_BUDGET`` (an integer cell cap) bounds any matrix for
time-boxed CI runs; the slice is a deterministic prefix and the dropped
count is reported, never silent.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro._fastpath import knob_default, knob_domains
from repro.errors import SimulationError
from repro.obs.diff import _entry
from repro.sim.random import derive_seed

#: Default relative tolerance for ``tolerant``-class KPI comparison.
DEFAULT_TOLERANCE = 0.75

#: Equivalence classes, weakest guarantee last.
EXPECT_CLASSES = ("byte", "tolerant", "perturb", "fault")

#: The fault schedule sampled matrices include by default.
_SAMPLE_SCHEDULE = "drop"


def _expect_for(toggles: Dict[str, bool], schedule: Optional[str],
                perturb: Optional[dict]) -> str:
    """The strongest class a cell with these knobs can promise."""
    if schedule is not None:
        return "fault"
    if perturb is not None:
        return "perturb"
    domains = knob_domains()
    if any(domains[name] != "fastpath" and value
           for name, value in toggles.items()):
        # copy_plane and placement knobs change which messages exist.
        return "tolerant"
    return "byte"


def make_cell(
    toggles: Optional[Dict[str, bool]] = None,
    schedule: Optional[str] = None,
    perturb: Optional[dict] = None,
    label: Optional[str] = None,
) -> Dict[str, Any]:
    """One matrix cell.  ``toggles`` holds only deltas from the shipped
    defaults (unknown names raise); the equivalence class is derived
    from the knobs, never guessed by callers."""
    domains = knob_domains()
    deltas: Dict[str, bool] = {}
    for name, value in sorted((toggles or {}).items()):
        if name not in domains:
            raise SimulationError(
                f"unknown toggle {name!r}; known: {', '.join(sorted(domains))}"
            )
        if bool(value) != knob_default(name):
            deltas[name] = bool(value)
    if perturb is not None and deltas.get("event_wheel"):
        raise SimulationError(
            "schedule perturbation requires the reference heap core; "
            "drop event_wheel from the cell's toggles"
        )
    if label is None:
        parts = [f"{n}={'on' if v else 'off'}" for n, v in deltas.items()]
        if schedule is not None:
            parts.append(f"faults:{schedule}")
        if perturb is not None:
            parts.append(f"perturb:{perturb.get('seed', 0)}")
        label = "+".join(parts) if parts else "baseline"
    return {
        "label": label,
        "toggles": deltas,
        "schedule": schedule,
        "perturb": perturb,
        "expect": _expect_for(deltas, schedule, perturb),
    }


# ------------------------------------------------------------- matrix builds

def sample_matrix(n: int, seed: int = 0) -> List[Dict[str, Any]]:
    """A stratified sample of ``n`` cells (first is always the
    baseline).  The first six cover every equivalence class and both
    event cores, cells seven and eight the placement plane; beyond that,
    deterministic random toggle vectors fill the budget (seeded from
    ``seed``, so the same matrix replays)."""
    if n < 2:
        raise SimulationError("a differential matrix needs >= 2 cells")
    strata = [
        make_cell(),
        make_cell({"event_wheel": True}),
        make_cell({"burst_pacing": True}),
        make_cell({"burst_pacing": True, "adaptive_precopy": True}),
        make_cell(perturb={"seed": derive_seed(seed, "verify:perturb:0"),
                           "rate": 0.25}),
        make_cell(schedule=_SAMPLE_SCHEDULE),
        make_cell({"load_cache": True}),
        make_cell({"load_cache": True, "probe_placement": True}),
    ]
    cells = strata[:n]
    rng = random.Random(f"verify-matrix:{seed}")
    names = sorted(knob_domains())
    seen = {json.dumps(_cell_key(c), sort_keys=True) for c in cells}
    attempts = 0
    while len(cells) < n and attempts < 64 * n:
        attempts += 1
        toggles = {name: rng.random() < 0.5 for name in names}
        perturb = None
        if not toggles.get("event_wheel") and rng.random() < 0.25:
            perturb = {"seed": rng.randrange(1 << 30), "rate": 0.25}
        cell = make_cell(toggles, perturb=perturb)
        key = json.dumps(_cell_key(cell), sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        cells.append(cell)
    return cells


def full_matrix(seed: int = 0,
                perturb_seeds: int = 4) -> List[Dict[str, Any]]:
    """The exhaustive matrix: the full cartesian product over every
    toggleable knob (2^N vectors, deduplicated to their deltas), plus
    one cell per fault schedule and ``perturb_seeds`` perturbed cells."""
    from repro.faults import FAULT_SCHEDULES

    names = sorted(knob_domains())
    cells = [make_cell()]
    seen = {json.dumps(_cell_key(cells[0]), sort_keys=True)}
    for bits in range(1 << len(names)):
        toggles = {
            name: bool(bits >> i & 1) for i, name in enumerate(names)
        }
        cell = make_cell(toggles)
        key = json.dumps(_cell_key(cell), sort_keys=True)
        if key not in seen:
            seen.add(key)
            cells.append(cell)
    for name in sorted(FAULT_SCHEDULES):
        cells.append(make_cell(schedule=name))
    for i in range(perturb_seeds):
        cells.append(make_cell(
            perturb={"seed": derive_seed(seed, f"verify:perturb:{i}"),
                     "rate": 0.25},
        ))
    return cells


def _cell_key(cell: Dict[str, Any]):
    return (cell["toggles"], cell["schedule"], cell["perturb"])


def build_matrix(mode: str, seed: int = 0) -> List[Dict[str, Any]]:
    """Parse a ``--matrix`` argument: ``sample:N`` or ``full``.  The
    ``REPRO_VERIFY_BUDGET`` environment variable (an integer) caps the
    cell count afterwards with a deterministic prefix slice."""
    if mode == "full":
        cells = full_matrix(seed=seed)
    elif mode.startswith("sample:"):
        try:
            n = int(mode.split(":", 1)[1])
        except ValueError:
            raise SimulationError(
                f"malformed matrix spec {mode!r}; want sample:N or full"
            ) from None
        cells = sample_matrix(n, seed=seed)
    else:
        raise SimulationError(
            f"malformed matrix spec {mode!r}; want sample:N or full"
        )
    budget = os.environ.get("REPRO_VERIFY_BUDGET")
    if budget:
        try:
            cap = int(budget)
        except ValueError:
            raise SimulationError(
                f"REPRO_VERIFY_BUDGET must be an integer, got {budget!r}"
            ) from None
        if 2 <= cap < len(cells):
            cells = cells[:cap]
    return cells


# --------------------------------------------------------------- exploration

def cell_config(cell: Dict[str, Any], base_seed: int,
                scenario: str = "ordering",
                scenario_config: Optional[Dict[str, Any]] = None,
                mutation: Optional[str] = None) -> Dict[str, Any]:
    """The ``verify_cell`` sweep config for one matrix cell."""
    inner = dict(scenario_config or {})
    if cell["schedule"] is not None:
        inner["schedule"] = cell["schedule"]
    return {
        "label": cell["label"],
        "toggles": dict(cell["toggles"]),
        "base_seed": base_seed,
        "scenario": scenario,
        "scenario_config": inner,
        "perturb": cell["perturb"],
        "mutation": mutation,
    }


def classify(cell: Dict[str, Any], result: Dict[str, Any],
             baseline: Dict[str, Any],
             tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """The reasons this cell FAILS its equivalence class against the
    baseline result (empty list = the cell holds its promise)."""
    reasons: List[str] = []
    if result is None:
        return ["cell produced no result"]
    if result.get("crash"):
        return [f"scenario crashed: {result['crash']}"]
    expect = cell["expect"]
    if expect == "byte":
        if result["payload_sha256"] != baseline["payload_sha256"]:
            reasons.append(
                "payload digest differs from baseline "
                f"({result['payload_sha256'][:12]} != "
                f"{baseline['payload_sha256'][:12]}) -- a "
                "trajectory-preserving toggle changed the trajectory"
            )
        return reasons
    if not result.get("invariants_ok"):
        violated = {k: v for k, v in result.get("invariants", {}).items() if v}
        reasons.append(f"invariant violations: {violated}")
    if expect == "fault":
        return reasons
    if result.get("stable") != baseline.get("stable"):
        reasons.append(
            f"stable outcome fields differ: {result.get('stable')} != "
            f"baseline {baseline.get('stable')}"
        )
    if expect == "perturb":
        return reasons
    # tolerant: KPIs within the repro-diff tolerance formula.
    for name, a in (baseline.get("kpis") or {}).items():
        b = (result.get("kpis") or {}).get(name)
        entry = _entry(a, b, abs_tol=0.0, rel_tol=tolerance)
        if not entry["within"]:
            reasons.append(
                f"KPI {name} outside tolerance: {a} -> {b} "
                f"(rel_tol={tolerance})"
            )
    return reasons


@dataclass
class VerifyResult:
    """The explorer's verdict: every cell's result plus the failures.

    ``rows`` pairs each cell with its ``verify_cell`` payload in matrix
    order (cell 0 is the baseline).  ``failures`` carries one entry per
    cell that broke its equivalence class, with the human-readable
    reasons -- the minimizer consumes these entries directly.
    """

    base_seed: int
    tolerance: float
    cells: List[Dict[str, Any]] = field(default_factory=list)
    results: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[Dict[str, Any]] = field(default_factory=list)
    mutation: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"verify: {len(self.cells)} cells, base seed {self.base_seed}"
            + (f", mutation {self.mutation}" if self.mutation else "")
        ]
        by_class: Dict[str, List[int]] = {}
        for i, cell in enumerate(self.cells):
            by_class.setdefault(cell["expect"], []).append(i)
        for name in EXPECT_CLASSES:
            idxs = by_class.get(name)
            if not idxs:
                continue
            bad = [i for i in idxs
                   if any(f["index"] == i for f in self.failures)]
            lines.append(
                f"  {name:8s} {len(idxs) - len(bad)}/{len(idxs)} ok"
            )
        for failure in self.failures:
            lines.append(f"  FAIL [{failure['label']}]")
            for reason in failure["reasons"]:
                lines.append(f"    - {reason}")
        lines.append("verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "base_seed": self.base_seed,
            "tolerance": self.tolerance,
            "mutation": self.mutation,
            "cells": self.cells,
            "results": self.results,
            "failures": self.failures,
            "ok": self.ok,
        }


def run_matrix(
    cells: Sequence[Dict[str, Any]],
    base_seed: int = 0,
    scenario: str = "ordering",
    scenario_config: Optional[Dict[str, Any]] = None,
    workers: int = 1,
    tolerance: float = DEFAULT_TOLERANCE,
    mutation: Optional[str] = None,
) -> VerifyResult:
    """Run every cell (through the sweep pool when ``workers > 1``) and
    classify each against cell 0, which must be the baseline."""
    from repro.parallel import run_sweep
    from repro.parallel.spec import SweepSpec

    cells = list(cells)
    if not cells or cells[0]["toggles"] or cells[0]["schedule"] \
            or cells[0]["perturb"]:
        raise SimulationError("matrix cell 0 must be the baseline cell")
    configs = tuple(
        cell_config(cell, base_seed, scenario=scenario,
                    scenario_config=scenario_config, mutation=mutation)
        for cell in cells
    )
    sweep = run_sweep(SweepSpec(
        scenario="verify_cell",
        configs=configs,
        replications=1,
        master_seed=base_seed,
        workers=workers,
    ))
    results = [sweep.rows[ci][0] for ci in range(len(cells))]
    out = VerifyResult(base_seed=base_seed, tolerance=tolerance,
                       cells=cells, results=results, mutation=mutation)
    baseline = results[0]
    if baseline is None or baseline.get("crash"):
        out.failures.append({
            "index": 0,
            "label": cells[0]["label"],
            "expect": "byte",
            "reasons": [
                "baseline cell crashed: "
                + str(baseline.get("crash") if baseline else None)
            ],
        })
        return out
    for i, cell in enumerate(cells[1:], start=1):
        reasons = classify(cell, results[i], baseline, tolerance=tolerance)
        if reasons:
            out.failures.append({
                "index": i,
                "label": cell["label"],
                "expect": cell["expect"],
                "reasons": reasons,
            })
    return out
