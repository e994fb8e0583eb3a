"""The per-cell wrapper around the verification workload.

Every verify cell runs the ``chaos`` scenario
(:func:`repro.faults.campaign.chaos_scenario`): an echo stream from ws0
to a server on ws1, a mid-run migration of the server, and -- for the
verify cells -- a *tie storm*, rounds of twin timers with equal delays
that guarantee a steady supply of same-instant event collisions and
same-instant timer cancels (the exact interleavings §3.1-3.2's
freeze/copy/retry argument must commute over).  The scenario returns a
plain JSON-able payload with no wall-clock values, so two runs of the
same cell must produce *byte-identical* payloads
(:func:`canonical_digest`).

``verify_cell`` runs one cell: it hands the scenario the cell's config
(fault schedule, planted bug, storm, all built by
:func:`repro.verify.matrix.cell_config`) and optionally a schedule
perturber (which the cluster's simulator is built with), and reports
the payload plus its digest, the invariant verdict and the stable
outcome fields the classifier needs.  Crashes are returned
as data (``crash``).  Every cell replays ``config["base_seed"]``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

def canonical_digest(payload: Any) -> str:
    """SHA-256 over the canonical JSON encoding of ``payload`` -- the
    byte-identity test two runs of the same cell must pass."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def verify_cell(config: Dict[str, Any]) -> Dict[str, Any]:
    """One differential cell: a ``chaos`` run at ``config["base_seed"]``.

    Config: ``base_seed``, ``scenario_config`` (the scenario's config,
    forwarded), ``perturb`` (None or ``{"seed", "rate"}``: a
    :class:`TiePerturber` handed to the scenario's cluster).
    """
    from repro.faults.campaign import chaos_scenario
    from repro.verify.perturb import TiePerturber

    base_seed = int(config.get("base_seed", 0))
    scenario_config = dict(config.get("scenario_config") or {})
    inner_cfg = dict(scenario_config)
    perturber = None
    perturb_cfg = config.get("perturb")
    if perturb_cfg:
        perturber = TiePerturber(seed=int(perturb_cfg.get("seed", 0)),
                                 rate=float(perturb_cfg.get("rate", 0.25)))
        inner_cfg["perturber"] = perturber

    crash: Optional[str] = None
    payload: Optional[Dict[str, Any]] = None
    try:
        payload = chaos_scenario(inner_cfg, base_seed)
    except Exception as exc:  # noqa: BLE001 - crashes are data here
        crash = f"{type(exc).__name__}: {exc}"

    result: Dict[str, Any] = {
        "base_seed": base_seed,
        "scenario_config": scenario_config,
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
        result["invariants"] = payload.get("invariants", {})
        result["invariants_ok"] = bool(payload.get("invariants_ok"))
    else:
        result["stable"] = None
        result["invariants"] = {}
        result["invariants_ok"] = False
    return result
