"""The toggle-matrix explorer: cells, equivalence classes, verdicts.

A *cell* is one configuration of the differential harness: a toggle
vector (only the deltas from the shipped defaults), an optional fault
schedule, an optional schedule perturbation, and the *equivalence
class* the cell's payload is expected to fall into relative to the
baseline cell (all defaults, same seed):

``tolerant``
    Toggle deltas only (every knob changes which packets exist): the
    four stable outcome fields must match exactly, invariants must
    hold, and the KPI scalars must agree within the ``repro diff``
    tolerance formula (generous by default -- the host-state caches'
    anti-entropy daemons roughly double the event count by design; the
    tolerance trips on order-of-magnitude regressions, not
    protocol-mode differences).  The baseline cell itself falls in this
    class: it is classified against itself, so only its invariants can
    fail.
``perturb``
    Same toggles, fuzzed same-instant ordering: outcomes and invariants
    must survive any tie permutation, but event counts may wiggle.
``fault``
    Runs under a fault schedule: only the invariants (and no crash) are
    required -- outcome counts legitimately depend on what the faults
    ate.

:func:`matrix` lists the cells; :func:`run_matrix` runs them one after
another in-process (a crash comes back as data, and the list is too
short for a worker pool to pay for its start-up).  Every cell replays
the same ``base_seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.obs.diff import _entry
from repro.sim.random import derive_seed
from repro.verify.scenario import verify_cell

#: The protocol modes a cell can switch on, all default off.
#: ``load_cache`` is the scenario's ``placement`` input: the cluster is
#: built with host-state caches.
KNOBS = ("load_cache",)

#: Tie-storm rounds every cell runs unless its scenario config says
#: otherwise (the storm is what makes a tie perturbation visible).
STORM_ROUNDS = 32

#: Default relative tolerance for ``tolerant``-class KPI comparison.
#: Load-cache daemon traffic is the widest legitimate gap: the small
#: test config at seed 11 runs 385 events without the caches and 994
#: with them (|delta| 609 <= 0.75 x 994).
DEFAULT_TOLERANCE = 0.75

#: Equivalence classes, weakest guarantee last.
EXPECT_CLASSES = ("tolerant", "perturb", "fault")


def _expect_for(schedule: Optional[str], perturb: Optional[dict]) -> str:
    """The strongest class a cell with these knobs can promise."""
    if schedule is not None:
        return "fault"
    if perturb is not None:
        return "perturb"
    return "tolerant"


def make_cell(
    toggles: Optional[Dict[str, bool]] = None,
    schedule: Optional[str] = None,
    perturb: Optional[dict] = None,
    label: Optional[str] = None,
) -> Dict[str, Any]:
    """One matrix cell.  ``toggles`` holds only deltas from the shipped
    defaults (unknown names raise); the equivalence class is derived
    from the knobs, never guessed by callers."""
    deltas: Dict[str, bool] = {}
    for name, value in sorted((toggles or {}).items()):
        if name not in KNOBS:
            raise SimulationError(
                f"unknown toggle {name!r}; known: {', '.join(KNOBS)}"
            )
        if value:
            deltas[name] = True
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
        "expect": _expect_for(schedule, perturb),
    }


# ---------------------------------------------------------------- the cells

#: Perturbed cells per toggle vector.
PERTURB_SEEDS = 4


def matrix(seed: int = 0) -> List[Dict[str, Any]]:
    """The verify cell list, in a stable order: for each toggle vector
    of :data:`KNOBS` (the all-defaults one first, so cell 0 is the
    baseline), its plain cell and :data:`PERTURB_SEEDS` perturbed cells
    seeded ``derive_seed(seed, "verify:perturb:<i>")``; then one cell
    per fault schedule.  17 cells for one knob and 7 schedules."""
    from repro.faults import FAULT_SCHEDULES

    cells = []
    for bits in range(1 << len(KNOBS)):
        toggles = {
            name: bool(bits >> i & 1) for i, name in enumerate(KNOBS)
        }
        cells.append(make_cell(toggles))
        for i in range(PERTURB_SEEDS):
            cells.append(make_cell(toggles, perturb={
                "seed": derive_seed(seed, f"verify:perturb:{i}"),
                "rate": 0.25,
            }))
    for name in sorted(FAULT_SCHEDULES):
        cells.append(make_cell(schedule=name))
    return cells


# --------------------------------------------------------------- exploration

def cell_config(cell: Dict[str, Any], base_seed: int,
                scenario_config: Optional[Dict[str, Any]] = None,
                break_rebinding: bool = False) -> Dict[str, Any]:
    """The ``verify_cell`` config for one matrix cell: the ``chaos``
    scenario with the cell's fault schedule (None: lossless), its
    toggles as scenario inputs, the tie storm on (:data:`STORM_ROUNDS`
    unless ``scenario_config`` says otherwise) and, for mutation smoke,
    lazy rebinding broken."""
    inner = {"storm_rounds": STORM_ROUNDS}
    inner.update(scenario_config or {})
    inner["schedule"] = cell["schedule"]
    inner["placement"] = bool(cell["toggles"].get("load_cache"))
    inner["break_rebinding"] = break_rebinding
    return {
        "base_seed": base_seed,
        "scenario_config": inner,
        "perturb": cell["perturb"],
    }


def classify(cell: Dict[str, Any], result: Dict[str, Any],
             baseline: Dict[str, Any],
             tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """The reasons this cell FAILS its equivalence class against the
    baseline result (empty list = the cell holds its promise)."""
    reasons: List[str] = []
    if result.get("crash"):
        return [f"scenario crashed: {result['crash']}"]
    expect = cell["expect"]
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

    ``results`` pairs each cell with its ``verify_cell`` payload in matrix
    order (cell 0 is the baseline).  ``failures`` carries one entry per
    cell that broke its equivalence class, with the human-readable
    reasons.
    """

    base_seed: int
    cells: List[Dict[str, Any]] = field(default_factory=list)
    results: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[Dict[str, Any]] = field(default_factory=list)
    break_rebinding: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"verify: {len(self.cells)} cells, base seed {self.base_seed}"
            + (", rebinding broken" if self.break_rebinding else "")
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
            "tolerance": DEFAULT_TOLERANCE,
            "break_rebinding": self.break_rebinding,
            "cells": self.cells,
            "results": self.results,
            "failures": self.failures,
            "ok": self.ok,
        }


def run_matrix(
    cells: Sequence[Dict[str, Any]],
    base_seed: int = 0,
    scenario_config: Optional[Dict[str, Any]] = None,
    break_rebinding: bool = False,
) -> VerifyResult:
    """Run every cell and classify each against cell 0, which must be
    the baseline (and is itself classified, so a baseline that breaks
    an invariant fails).  ``break_rebinding`` plants the bug in every
    cell (mutation smoke)."""
    cells = list(cells)
    if not cells or cells[0]["toggles"] or cells[0]["schedule"] \
            or cells[0]["perturb"]:
        raise SimulationError("matrix cell 0 must be the baseline cell")
    results = [
        verify_cell(cell_config(cell, base_seed,
                                scenario_config=scenario_config,
                                break_rebinding=break_rebinding))
        for cell in cells
    ]
    out = VerifyResult(base_seed=base_seed, cells=cells, results=results,
                       break_rebinding=break_rebinding)
    baseline = results[0]
    if baseline.get("crash"):
        out.failures.append({
            "index": 0,
            "label": cells[0]["label"],
            "expect": cells[0]["expect"],
            "reasons": ["baseline cell crashed: " + baseline["crash"]],
        })
        return out
    for i, cell in enumerate(cells):
        reasons = classify(cell, results[i], baseline)
        if reasons:
            out.failures.append({
                "index": i,
                "label": cell["label"],
                "expect": cell["expect"],
                "reasons": reasons,
            })
    return out
