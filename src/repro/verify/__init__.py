"""Differential verification: one fixed cell list, schedule
perturbation, a planted bug.

The simulator has no protocol modes, and one event core whose
same-instant ordering the paper's protocol must not lean on.  Every
cell runs the one echo-under-migration workload, the ``chaos``
scenario (:func:`repro.faults.campaign.chaos_scenario`), and builds its
own cluster from its scenario inputs and its perturber, so no cell
leaves process state behind.  This package *checks* that promise
instead of assuming it:

* :mod:`repro.verify.matrix` -- the fixed list of 12 cells (the
  lossless baseline, the baseline under 4 schedule perturbations, and
  every fault schedule), run in one process, with each cell's
  equivalence class asserted against the baseline (same stable
  outcomes / invariants only);
* :mod:`repro.verify.perturb` -- seeded fuzzing of the engine's
  same-instant ``(time, seq)`` tie-breaking, so outcomes provably do
  not lean on schedule-order accidents;
* :mod:`repro.verify.scenario` -- ``verify_cell``, which runs one cell
  and digests its payload.

The planted bug that proves the harness can fail is the scenario's own
``break_rebinding`` input (``verify --break-rebinding``, the same flag
``chaos`` has; ``make verify-smoke`` runs it end to end).

What the seed moves: ``verify --seed N`` sets the perturber seeds of
the 4 perturbed cells and the scenario seed of every cell, but a
lossless run's trajectory does not depend on the scenario seed, so in
effect it moves only the 4 perturber seeds and the 7 fault cells.  The
baseline cell replays one payload at every seed
(``tests/verify/test_cell_digests.py`` holds it to that).

``python -m repro verify`` is the CLI face; its exit codes follow the
``repro diff`` contract (:data:`repro.obs.diff.EXIT_OK` /
``EXIT_DIFFERENT`` / ``EXIT_USAGE``).
"""

from repro.verify.matrix import (
    VerifyResult,
    classify,
    make_cell,
    matrix,
    run_matrix,
)
from repro.verify.perturb import TiePerturber

__all__ = [
    "TiePerturber",
    "VerifyResult",
    "classify",
    "make_cell",
    "matrix",
    "run_matrix",
]
