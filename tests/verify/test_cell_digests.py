"""Pinned payload digests of the verify ``ordering`` cells.

Each toggle vector and perturber becomes an input of the cell's own
cluster, so a cell's trajectory is a pure function of the cell.  There
is one plain pin and one perturbed pin per toggle vector (perturber
seed ``derive_seed(7, "verify:perturb:0")``, rate 0.25, the first
perturbed cell of ``matrix(7)``).  Any change to how a mode or a
perturber reaches the simulator that moves a single packet or a single
tie shows up here.
"""

import pytest

from repro.sim.random import derive_seed
from repro.verify.scenario import verify_cell

PERTURB = {"seed": derive_seed(7, "verify:perturb:0"), "rate": 0.25}

DIGESTS = {
    "baseline": (
        {}, None,
        "4acb9cc5eb2c0772741229f0fda208df6e7279891f483b22c5057e1d805e2ae5"),
    "load_cache": (
        {"load_cache": True}, None,
        "1cf149c9fc788e7cbe0c6d8fd10ccfb14671a05dad33e712e0b493313d1d802d"),
    "baseline+perturb": (
        {}, PERTURB,
        "dfa13141b63917251b0a55eb0733f5bfcd3a2d5d6b1619bd965d0e7030ad0a3b"),
    "load_cache+perturb": (
        {"load_cache": True}, PERTURB,
        "e53fb5ea209913f3341fccbff99b39bc8b549e9dd2965d5d918f9f4ab4042447"),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_ordering_cell_digest_is_pinned(name):
    toggles, perturb, digest = DIGESTS[name]
    result = verify_cell({
        "toggles": toggles, "base_seed": 7, "perturb": perturb,
        "scenario_config": {"messages": 20},
    })
    assert result["crash"] is None
    assert result["payload_sha256"] == digest
