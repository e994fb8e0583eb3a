"""Pinned payload digests of the verify cells.

Every cell runs the ``chaos`` scenario with the tie storm on; each
toggle vector and perturber becomes an input of the cell's own
cluster, so a cell's trajectory is a pure function of the cell.  There
is one plain pin and one perturbed pin per toggle vector (perturber
seed ``derive_seed(7, "verify:perturb:0")``, rate 0.25, the first
perturbed cell of ``matrix(7)``).  Any change to how a mode or a
perturber reaches the simulator that moves a single packet or a single
tie shows up here.
"""

import pytest

from repro.sim.random import derive_seed
from repro.verify import make_cell
from repro.verify.matrix import cell_config
from repro.verify.scenario import verify_cell

PERTURB = {"seed": derive_seed(7, "verify:perturb:0"), "rate": 0.25}

DIGESTS = {
    "baseline": (
        {}, None,
        "608df1ab8a42c2e7b39bf0c3651a92b02b31138745942c7ad54c0d3e96d05461"),
    "load_cache": (
        {"load_cache": True}, None,
        "bac03cc886b9051acc72ed0f54c69a0c29a7c08d9c4cc377d34a24e60cc06ed4"),
    "baseline+perturb": (
        {}, PERTURB,
        "e6f3351efb0301d1d1fef8d69a2d6d17a65276fab2560c0d2efcf36fffba2a62"),
    "load_cache+perturb": (
        {"load_cache": True}, PERTURB,
        "091819491478a877af4a9cb49017800f4a448383ae595dd9508be6249db8c433"),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_ordering_cell_digest_is_pinned(name):
    toggles, perturb, digest = DIGESTS[name]
    cell = make_cell(toggles, perturb=perturb)
    result = verify_cell(cell_config(cell, 7, {"messages": 20}))
    assert result["crash"] is None
    assert result["payload_sha256"] == digest
