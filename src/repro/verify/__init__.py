"""Differential verification: one fixed cell list, schedule
perturbation, a planted bug.

The simulator has a protocol mode that changes which messages exist but
must never change an outcome -- host-state caches via
``build_cluster(placement=True)`` -- and one event core whose
same-instant ordering the paper's protocol must not lean on.  Every
cell runs the one echo-under-migration workload, the ``chaos``
scenario (:func:`repro.faults.campaign.chaos_scenario`), and builds its
own cluster from its scenario inputs and its perturber, so no cell
leaves process state behind.  This package *checks* those promises
instead of assuming them:

* :mod:`repro.verify.matrix` -- the fixed cell list (each toggle vector
  plain and under 4 schedule perturbations, plus every fault schedule),
  run in one process, with each cell's equivalence class asserted
  against the all-defaults baseline (tolerance-diffed / invariants-only);
* :mod:`repro.verify.perturb` -- seeded fuzzing of the engine's
  same-instant ``(time, seq)`` tie-breaking, so outcomes provably do
  not lean on schedule-order accidents;
* :mod:`repro.verify.scenario` -- ``verify_cell``, which runs one cell
  and digests its payload.

The planted bug that proves the harness can fail is the scenario's own
``break_rebinding`` input (``verify --break-rebinding``, the same flag
``chaos`` has; ``make verify-smoke`` runs it end to end).

``python -m repro verify`` is the CLI face; its exit codes follow the
``repro diff`` contract (:data:`repro.obs.diff.EXIT_OK` /
``EXIT_DIFFERENT`` / ``EXIT_USAGE``).
"""

from repro.verify.matrix import (
    DEFAULT_TOLERANCE,
    VerifyResult,
    classify,
    make_cell,
    matrix,
    run_matrix,
)
from repro.verify.perturb import TiePerturber

__all__ = [
    "DEFAULT_TOLERANCE",
    "TiePerturber",
    "VerifyResult",
    "classify",
    "make_cell",
    "matrix",
    "run_matrix",
]
