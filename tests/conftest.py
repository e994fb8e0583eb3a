"""Global test hygiene.

The repo's switchable machinery is process-global state: the
COPY_PLANE/PLACEMENT switch blocks, the planted mutations of the
differential harness, and the armed-perturber slot consumed by the next
``Simulator``.  A test that flips any of these and dies mid-way must
not poison its neighbours, so one autouse fixture snapshots and
restores all of it around every test -- which is also what lets
``tests/helpers.py``'s ``make_cluster(toggles=...)`` set knobs without
per-test try/finally blocks.
"""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def _toggle_hygiene():
    from repro._fastpath import COPY_PLANE, PLACEMENT
    from repro.sim.engine import arm_perturber
    from repro.verify.mutation import clear_all

    copy_plane = COPY_PLANE.snapshot()
    placement = PLACEMENT.snapshot()
    yield
    for name, value in copy_plane.items():
        setattr(COPY_PLANE, name, value)
    for name, value in placement.items():
        setattr(PLACEMENT, name, value)
    clear_all()
    arm_perturber(None)
