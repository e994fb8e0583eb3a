"""Planted bugs for mutation smoke: prove the harness can catch one.

A verification harness that has never seen a failure proves nothing.
Each entry in :data:`MUTATIONS` names a deliberate, realistic bug wired
(dormant) into the code behind a planted-flag block beside its one
reader; the mutation-smoke test plants one, asserts the toggle-matrix
explorer flags exactly the cells it should, and asserts the minimizer
shrinks the failure to its minimal triple.

``burst-skip-copy-end``
    :meth:`CopyEngine._send_burst` reaches the end of its page list and
    returns without announcing the end of the run
    (:data:`repro.ipc.copyops._PLANTED`).  The receiver never acks, so
    a burst-paced CopyTo stalls and the migration fails: a stable
    outcome-field violation whose minimal toggle delta is the single
    knob ``burst_pacing`` -- the per-page stream never reaches the bug.

Plant/clear are process-global (like the toggles themselves); the
``tests/conftest.py`` hygiene fixture clears them around every test.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List

from repro.errors import SimulationError
from repro.ipc.copyops import _PLANTED

#: Mutation name -> the ``_PLANTED`` flag it sets.
MUTATIONS: Dict[str, str] = {
    "burst-skip-copy-end": "burst_skip_copy_end",
}


def mutation_names() -> List[str]:
    return sorted(MUTATIONS)


def plant(name: str) -> None:
    """Plant the named bug (raises for unknown names)."""
    flag = MUTATIONS.get(name)
    if flag is None:
        raise SimulationError(
            f"unknown mutation {name!r}; known: {', '.join(mutation_names())}"
        )
    setattr(_PLANTED, flag, True)


def clear(name: str) -> None:
    """Clear the named bug (raises for unknown names)."""
    flag = MUTATIONS.get(name)
    if flag is None:
        raise SimulationError(
            f"unknown mutation {name!r}; known: {', '.join(mutation_names())}"
        )
    setattr(_PLANTED, flag, False)


def clear_all() -> None:
    """Clear every planted bug (test hygiene)."""
    for flag in MUTATIONS.values():
        setattr(_PLANTED, flag, False)


def planted() -> List[str]:
    """Names of currently planted bugs (flight-recorder manifests)."""
    return [
        name for name, flag in sorted(MUTATIONS.items())
        if getattr(_PLANTED, flag)
    ]


@contextmanager
def planted_mutation(name: str):
    """Context manager: plant ``name`` for the duration of the block."""
    plant(name)
    try:
        yield
    finally:
        clear(name)
