"""Differential verification: toggle matrices, schedule perturbation,
failure minimization.

The repository carries two kinds of switchable machinery: the event
core, which must never change a trajectory
(:data:`repro._fastpath.FASTPATH`), and protocol modes that deliberately
do (:data:`repro._fastpath.COPY_PLANE`, :data:`repro._fastpath.PLACEMENT`).  This package *checks* those
promises instead of assuming them:

* :mod:`repro.verify.matrix` -- run one scenario across a matrix of
  toggle vectors, fault schedules and schedule perturbations, and
  assert each cell's equivalence class against the all-defaults
  baseline (byte-identical / tolerance-diffed / invariants-only);
* :mod:`repro.verify.perturb` -- seeded fuzzing of the engine's
  same-instant ``(time, seq)`` tie-breaking, so outcomes provably do
  not lean on schedule-order accidents;
* :mod:`repro.verify.minimize` -- shrink a failing cell to a minimal
  (toggle delta, seed, swap trace) triple and dump it as a
  flight-recorder bundle for offline replay;
* :mod:`repro.verify.mutation` -- planted engine bugs proving the
  harness actually catches what it claims to catch
  (``make verify-smoke`` runs one end to end);
* :mod:`repro.verify.scenario` -- the ordering-heavy workload the
  matrix replays, and the ``verify_cell`` wrapper that lets cells ride
  the :mod:`repro.parallel` sweep pool.

``python -m repro verify`` is the CLI face; its exit codes follow the
``repro diff`` contract (:data:`repro.obs.diff.EXIT_OK` /
``EXIT_DIFFERENT`` / ``EXIT_USAGE``).
"""

from repro.verify.matrix import (
    DEFAULT_TOLERANCE,
    VerifyResult,
    build_matrix,
    classify,
    full_matrix,
    make_cell,
    run_matrix,
    sample_matrix,
)
from repro.verify.minimize import (
    MinimalRepro,
    bundle_dir_for,
    dump_repro,
    minimize_failure,
    replay_bundle,
)
from repro.verify.mutation import (
    MUTATIONS,
    mutation_names,
    planted,
    planted_mutation,
)
from repro.verify.perturb import TiePerturber

__all__ = [
    "DEFAULT_TOLERANCE",
    "MUTATIONS",
    "MinimalRepro",
    "TiePerturber",
    "VerifyResult",
    "build_matrix",
    "bundle_dir_for",
    "classify",
    "dump_repro",
    "full_matrix",
    "make_cell",
    "minimize_failure",
    "mutation_names",
    "planted",
    "planted_mutation",
    "replay_bundle",
    "run_matrix",
    "sample_matrix",
]
