"""Pinned payload digests of the verify cells.

Every cell runs the ``chaos`` scenario with the tie storm on; the
perturber becomes an input of the cell's own cluster, so a cell's
trajectory is a pure function of the cell.  There is one plain pin and
one perturbed pin (perturber seed ``derive_seed(7, "verify:perturb:0")``,
rate 0.25, the first perturbed cell of ``matrix(7)``).  Any change to
how a perturber reaches the simulator that moves a single packet or a
single tie shows up here.
"""

import pytest

from repro.sim.random import derive_seed
from repro.verify import make_cell
from repro.verify.matrix import cell_config
from repro.verify.scenario import verify_cell

PERTURB = {"seed": derive_seed(7, "verify:perturb:0"), "rate": 0.25}

DIGESTS = {
    "baseline": (
        None,
        "5a1605623f634d0a637a1750eded65544b04fef659f935978a70561180bd157b"),
    "baseline+perturb": (
        PERTURB,
        "d6de741b3be3958c612d55594109e74dd7579822a3f9a4d6b44acabd04bf8e81"),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_ordering_cell_digest_is_pinned(name):
    perturb, digest = DIGESTS[name]
    cell = make_cell(perturb=perturb)
    result = verify_cell(cell_config(cell, 7, {"messages": 20}))
    assert result["crash"] is None
    assert result["payload_sha256"] == digest


def test_baseline_payload_does_not_depend_on_the_seed():
    """``verify --seed`` moves the perturber seeds and the fault cells
    only: a lossless run draws nothing from the scenario seed, so the
    baseline cell replays one payload at seeds 3 and 7."""
    digests = {seed: verify_cell(cell_config(make_cell(), seed,
                                             {"messages": 20}))
               ["payload_sha256"] for seed in (3, 7)}
    assert digests == {3: DIGESTS["baseline"][1], 7: DIGESTS["baseline"][1]}
