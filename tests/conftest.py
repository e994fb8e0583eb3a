"""Global test hygiene.

Protocol modes are inputs of the cluster a test builds (the hardware
model and ``build_cluster(placement=...)``), so they need no cleanup.
Two pieces of test machinery are still process-global: the planted
mutations of the differential harness and the armed-perturber slot
consumed by the next ``Simulator``.  A test that sets either and dies
mid-way must not poison its neighbours, so one autouse fixture clears
both after every test.
"""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def _mutation_hygiene():
    from repro.sim.engine import arm_perturber
    from repro.verify.mutation import clear_all

    yield
    clear_all()
    arm_perturber(None)
