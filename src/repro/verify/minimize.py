"""Failure minimization: shrink a failing cell to its minimal triple.

The explorer reports failures as whole cells -- a toggle vector, a
seed, maybe a fuzzed perturbation with dozens of swaps.  Debugging
wants the *minimal* reproduction: the fewest toggle deltas and the
shortest swap trace that still break the cell's equivalence class.
Two classic reductions, both driven by an in-process probe
(:func:`repro.verify.scenario.run_cell_config` + the explorer's
classifier, so "still fails" means exactly what the explorer meant):

* **greedy toggle reversion** -- try reverting each delta to its
  shipped default, keep the reversion whenever the cell still fails,
  loop to a fixpoint.  Toggle interactions here are near-monotone
  (a failure caused by one knob survives reverting the others), so
  greedy converges in one or two passes where full ddmin over vectors
  would burn cells;
* **ddmin over the swap trace** -- a fuzzed perturbation is first
  pinned to replay mode (the recorded swap ordinals), then Zeller's
  delta debugging shrinks the ordinal set: try dropping chunks at
  increasing granularity while the failure persists, ending 1-minimal
  (no single remaining swap can be dropped).

The minimal triple is then re-run once with the flight recorder armed,
producing a postmortem bundle whose manifest context carries the triple
-- ``repro verify --replay BUNDLE`` re-runs it from the bundle alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import SimulationError
from repro.verify.matrix import DEFAULT_TOLERANCE, classify, make_cell
from repro.verify.scenario import run_cell_config


@dataclass
class MinimalRepro:
    """The minimizer's output: the smallest still-failing cell."""

    cell: Dict[str, Any]
    config: Dict[str, Any]
    reasons: List[str]
    #: Probe runs spent (the minimization cost, for reporting).
    probes: int = 0
    #: What the reduction removed, for the summary line.
    dropped_toggles: List[str] = field(default_factory=list)
    dropped_swaps: int = 0
    bundle: Optional[str] = None

    def summary(self) -> str:
        toggles = self.cell["toggles"]
        perturb = self.cell["perturb"]
        trace = (perturb or {}).get("replay") or []
        lines = [
            "minimal repro "
            f"({self.probes} probe run(s), "
            f"dropped {len(self.dropped_toggles)} toggle delta(s) "
            f"and {self.dropped_swaps} swap(s)):",
            f"  toggles: {toggles if toggles else '(defaults)'}",
            f"  base seed: {self.config['base_seed']}"
            f"  scenario: {self.config['scenario']}",
            f"  perturbation trace: {trace if trace else '(none)'}",
            f"  mutation: {self.config.get('mutation') or '(none)'}",
        ]
        for reason in self.reasons:
            lines.append(f"  still fails: {reason}")
        if self.bundle:
            lines.append(f"  bundle: {self.bundle}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "cell": self.cell,
            "config": self.config,
            "reasons": self.reasons,
            "probes": self.probes,
            "dropped_toggles": self.dropped_toggles,
            "dropped_swaps": self.dropped_swaps,
            "bundle": self.bundle,
        }


class _Prober:
    """Runs candidate cells in-process and answers "does it still fail
    its equivalence class against this baseline?"."""

    def __init__(self, base_config: Dict[str, Any],
                 baseline: Dict[str, Any], tolerance: float):
        self.base_config = base_config
        self.baseline = baseline
        self.tolerance = tolerance
        self.probes = 0

    def failure(self, cell: Dict[str, Any]) -> List[str]:
        config = dict(self.base_config)
        config["toggles"] = dict(cell["toggles"])
        config["perturb"] = cell["perturb"]
        if cell["schedule"] is not None:
            inner = dict(config.get("scenario_config") or {})
            inner["schedule"] = cell["schedule"]
            config["scenario_config"] = inner
        self.probes += 1
        result = run_cell_config(config)
        return classify(cell, result, self.baseline,
                        tolerance=self.tolerance)


def _remake(cell: Dict[str, Any], toggles: Dict[str, bool],
            perturb: Optional[dict]) -> Dict[str, Any]:
    return make_cell(toggles, schedule=cell["schedule"], perturb=perturb)


def _shrink_toggles(cell: Dict[str, Any], prober: _Prober,
                    dropped: List[str]) -> Dict[str, Any]:
    """Greedy reversion of toggle deltas to their defaults, to a
    fixpoint."""
    current = cell
    changed = True
    while changed and current["toggles"]:
        changed = False
        for name in sorted(current["toggles"]):
            candidate_toggles = {
                k: v for k, v in current["toggles"].items() if k != name
            }
            candidate = _remake(current, candidate_toggles,
                                current["perturb"])
            if prober.failure(candidate):
                current = candidate
                dropped.append(name)
                changed = True
    return current


def _shrink_trace(cell: Dict[str, Any], prober: _Prober) -> (dict, int):
    """ddmin over the replay swap trace; returns (cell, swaps dropped)."""
    perturb = cell["perturb"]
    trace = sorted((perturb or {}).get("replay") or [])
    if not trace:
        return cell, 0

    def probe(subset: List[int]) -> Optional[Dict[str, Any]]:
        candidate = _remake(
            cell, cell["toggles"],
            dict(perturb, replay=list(subset)),
        )
        return candidate if prober.failure(candidate) else None

    # Empty trace first: if the failure doesn't need the perturbation at
    # all, drop it wholesale (the common case for toggle-caused bugs).
    no_perturb = _remake(cell, cell["toggles"], None)
    if prober.failure(no_perturb):
        return no_perturb, len(trace)

    n = 2
    current = list(trace)
    while len(current) >= 2:
        chunk = max(1, len(current) // n)
        reduced = False
        for start in range(0, len(current), chunk):
            subset = current[:start] + current[start + chunk:]
            if not subset:
                continue
            hit = probe(subset)
            if hit is not None:
                current = subset
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(current):
                break
            n = min(len(current), n * 2)
    final = probe(current)
    if final is None:  # pragma: no cover - probe flake guard
        raise SimulationError(
            "minimized swap trace stopped failing on re-probe; "
            "the failure is not a pure function of the triple"
        )
    return final, len(trace) - len(current)


def minimize_failure(
    cell: Dict[str, Any],
    base_config: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> MinimalRepro:
    """Shrink ``cell`` (which fails its class against ``baseline`` under
    ``base_config``'s seed/scenario/mutation) to a minimal repro.

    A fuzz-mode perturbation is pinned to its recorded swap trace first
    so every later probe is a pure replay; then toggles shrink, then the
    trace.  Raises when the cell does not actually fail (minimizing a
    passing cell means the caller's classification diverged from ours).
    """
    prober = _Prober(base_config, baseline, tolerance)

    current = make_cell(cell["toggles"], schedule=cell["schedule"],
                        perturb=cell["perturb"])
    if current["perturb"] is not None and not current["perturb"].get("replay"):
        # Pin fuzz mode to its recorded trace: re-run once, then replay.
        config = dict(base_config)
        config["toggles"] = dict(current["toggles"])
        config["perturb"] = current["perturb"]
        prober.probes += 1
        first = run_cell_config(config)
        trace = ((first or {}).get("perturb") or {}).get("swaps") or []
        current = _remake(current, current["toggles"],
                          dict(current["perturb"], replay=trace))

    reasons = prober.failure(current)
    if not reasons:
        raise SimulationError(
            f"cell {cell['label']!r} does not fail against this baseline; "
            "nothing to minimize"
        )

    dropped_toggles: List[str] = []
    current = _shrink_toggles(current, prober, dropped_toggles)
    current, dropped_swaps = _shrink_trace(current, prober)
    reasons = prober.failure(current)

    config = dict(base_config)
    config["toggles"] = dict(current["toggles"])
    config["perturb"] = current["perturb"]
    if current["schedule"] is not None:
        inner = dict(config.get("scenario_config") or {})
        inner["schedule"] = current["schedule"]
        config["scenario_config"] = inner
    return MinimalRepro(
        cell=current,
        config=config,
        reasons=reasons,
        probes=prober.probes,
        dropped_toggles=dropped_toggles,
        dropped_swaps=dropped_swaps,
    )


# ------------------------------------------------------------ repro bundles

def dump_repro(minimal: MinimalRepro, out_dir: str) -> str:
    """Re-run the minimal repro with the flight recorder armed and
    return the bundle directory.  The manifest context carries the
    whole triple, so ``repro verify --replay`` needs nothing else."""
    config = dict(minimal.config)
    config["postmortem_dir"] = out_dir
    config["postmortem_reason"] = "verify-minimal-repro"
    config["postmortem_context"] = {
        "verify_repro": {
            "toggles": dict(minimal.cell["toggles"]),
            "schedule": minimal.cell["schedule"],
            "perturb": minimal.cell["perturb"],
            "mutation": config.get("mutation"),
            "base_seed": config["base_seed"],
            "scenario": config["scenario"],
            "scenario_config": dict(config.get("scenario_config") or {}),
            "expect": minimal.cell["expect"],
            "reasons": minimal.reasons,
        },
    }
    result = run_cell_config(config)
    bundle = ((result or {}).get("payload") or {}).get("postmortem")
    if not bundle:
        raise SimulationError(
            f"minimal repro re-run produced no postmortem bundle in "
            f"{out_dir!r} (crash: {(result or {}).get('crash')})"
        )
    minimal.bundle = bundle
    return bundle


def replay_bundle(bundle_dir: str,
                  tolerance: float = DEFAULT_TOLERANCE) -> Dict[str, Any]:
    """Re-run a minimized repro from its postmortem bundle and report
    whether it still fails its recorded equivalence class.

    Returns ``{"repro", "reasons", "still_fails", "result",
    "baseline"}``.
    """
    from repro.obs.flight_recorder import load_postmortem

    bundle = load_postmortem(bundle_dir)
    repro = (bundle["manifest"].get("context") or {}).get("verify_repro")
    if not repro:
        raise SimulationError(
            f"bundle {bundle_dir!r} was not produced by the verify "
            "minimizer (no verify_repro context in its manifest)"
        )
    base_config = {
        "base_seed": int(repro["base_seed"]),
        "scenario": repro["scenario"],
        "scenario_config": dict(repro.get("scenario_config") or {}),
        "mutation": repro.get("mutation"),
        "toggles": {},
        "perturb": None,
    }
    baseline = run_cell_config(dict(base_config))
    cell = make_cell(repro.get("toggles") or {},
                     schedule=repro.get("schedule"),
                     perturb=repro.get("perturb"))
    config = dict(base_config)
    config["toggles"] = dict(cell["toggles"])
    config["perturb"] = cell["perturb"]
    if cell["schedule"] is not None:
        config["scenario_config"] = dict(
            config["scenario_config"], schedule=cell["schedule"],
        )
    result = run_cell_config(config)
    reasons = classify(cell, result, baseline, tolerance=tolerance)
    return {
        "repro": repro,
        "reasons": reasons,
        "still_fails": bool(reasons),
        "result": result,
        "baseline": baseline,
    }


def bundle_dir_for(out_root: str, label: str) -> str:
    """A filesystem-safe bundle directory for a failing cell label."""
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in label)
    return os.path.join(out_root, safe[:80] or "repro")
