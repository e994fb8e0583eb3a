"""The verify cell list: cells, equivalence classes, verdicts.

A *cell* is one configuration of the differential harness: an optional
fault schedule, an optional schedule perturbation, and the
*equivalence class* the cell's payload is expected to fall into
relative to the baseline cell (lossless, unperturbed, same seed):

``baseline``
    The reference cell itself.  It is classified against itself, so
    only its invariants (and a crash) can fail it.
``perturb``
    Fuzzed same-instant ordering: the four stable outcome fields must
    match the baseline's exactly and invariants must hold under any tie
    permutation, but event counts may wiggle.
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
from repro.sim.random import derive_seed
from repro.verify.scenario import verify_cell

#: Tie-storm rounds every cell runs unless its scenario config says
#: otherwise (the storm is what makes a tie perturbation visible).
STORM_ROUNDS = 32

#: Equivalence classes, in the order the summary lists them.
EXPECT_CLASSES = ("baseline", "perturb", "fault")


def _expect_for(schedule: Optional[str], perturb: Optional[dict]) -> str:
    """The strongest class a cell with these knobs can promise."""
    if schedule is not None:
        return "fault"
    if perturb is not None:
        return "perturb"
    return "baseline"


def make_cell(
    schedule: Optional[str] = None,
    perturb: Optional[dict] = None,
    label: Optional[str] = None,
) -> Dict[str, Any]:
    """One matrix cell; the equivalence class is derived from the
    knobs, never guessed by callers."""
    if label is None:
        parts = []
        if schedule is not None:
            parts.append(f"faults:{schedule}")
        if perturb is not None:
            parts.append(f"perturb:{perturb.get('seed', 0)}")
        label = "+".join(parts) if parts else "baseline"
    return {
        "label": label,
        "schedule": schedule,
        "perturb": perturb,
        "expect": _expect_for(schedule, perturb),
    }


# ---------------------------------------------------------------- the cells

#: Perturbed cells in the list.
PERTURB_SEEDS = 4


def matrix(seed: int = 0) -> List[Dict[str, Any]]:
    """The verify cell list, in a stable order: the baseline cell, then
    :data:`PERTURB_SEEDS` perturbed cells seeded
    ``derive_seed(seed, "verify:perturb:<i>")``, then one cell per fault
    schedule.  12 cells for 7 schedules.

    ``seed`` reaches only the perturber seeds here; the scenario seed
    is ``run_matrix``'s ``base_seed``, which the lossless cells' payload
    does not depend on (see :mod:`repro.verify`)."""
    from repro.faults import FAULT_SCHEDULES

    cells = [make_cell()]
    for i in range(PERTURB_SEEDS):
        cells.append(make_cell(perturb={
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
    scenario with the cell's fault schedule (None: lossless), the tie
    storm on (:data:`STORM_ROUNDS` unless ``scenario_config`` says
    otherwise) and, for mutation smoke, lazy rebinding broken."""
    inner = {"storm_rounds": STORM_ROUNDS}
    inner.update(scenario_config or {})
    inner["schedule"] = cell["schedule"]
    inner["break_rebinding"] = break_rebinding
    return {
        "base_seed": base_seed,
        "scenario_config": inner,
        "perturb": cell["perturb"],
    }


def classify(cell: Dict[str, Any], result: Dict[str, Any],
             baseline: Dict[str, Any]) -> List[str]:
    """The reasons this cell FAILS its equivalence class against the
    baseline result (empty list = the cell holds its promise)."""
    reasons: List[str] = []
    if result.get("crash"):
        return [f"scenario crashed: {result['crash']}"]
    expect = cell["expect"]
    if not result.get("invariants_ok"):
        violated = {k: v for k, v in result.get("invariants", {}).items() if v}
        reasons.append(f"invariant violations: {violated}")
    if expect == "perturb" and result.get("stable") != baseline.get("stable"):
        reasons.append(
            f"stable outcome fields differ: {result.get('stable')} != "
            f"baseline {baseline.get('stable')}"
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
    if not cells or cells[0]["expect"] != "baseline":
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
