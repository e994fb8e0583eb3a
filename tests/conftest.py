"""Global test hygiene.

Protocol modes and planted mutations are inputs of the cluster a test
builds (the hardware model, ``build_cluster(placement=...)`` and the
scenario's ``mutation``), so they need no cleanup.  One piece of test
machinery is still process-global: the armed-perturber slot consumed
by the next ``Simulator``.  A test that arms it and dies mid-way must
not poison its neighbours, so one autouse fixture clears it after
every test.
"""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def _perturber_hygiene():
    from repro.sim.engine import arm_perturber

    yield
    arm_perturber(None)
