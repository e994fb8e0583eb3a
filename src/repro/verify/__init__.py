"""Differential verification: one fixed cell list, schedule
perturbation, planted mutations.

The simulator has a protocol mode that changes which messages exist but
must never change an outcome -- host-state caches via
``build_cluster(placement=True)`` -- and one event core whose
same-instant ordering the paper's protocol must not lean on.  Each
matrix cell builds its own cluster from its toggle vector
(:data:`repro.verify.scenario.KNOBS`), its mutation and its perturber,
so no cell leaves process state behind.  This package *checks* those
promises instead of assuming them:

* :mod:`repro.verify.matrix` -- the fixed cell list (each toggle vector
  plain and under 4 schedule perturbations, plus every fault schedule),
  run in one process, with each cell's equivalence class asserted
  against the all-defaults baseline (tolerance-diffed / invariants-only);
* :mod:`repro.verify.perturb` -- seeded fuzzing of the engine's
  same-instant ``(time, seq)`` tie-breaking, so outcomes provably do
  not lean on schedule-order accidents;
* :mod:`repro.verify.mutation` -- planted bugs (functions that break
  a cell's cluster) proving the harness actually catches what it
  claims to catch (``make verify-smoke`` runs one end to end);
* :mod:`repro.verify.scenario` -- the ordering-heavy workload the
  cells replay, and the ``verify_cell`` wrapper that runs one cell.

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
from repro.verify.mutation import (
    MUTATIONS,
    get_mutation,
    mutation_names,
)
from repro.verify.perturb import TiePerturber

__all__ = [
    "DEFAULT_TOLERANCE",
    "MUTATIONS",
    "TiePerturber",
    "VerifyResult",
    "classify",
    "get_mutation",
    "make_cell",
    "matrix",
    "mutation_names",
    "run_matrix",
]
