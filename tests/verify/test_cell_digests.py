"""Pinned payload digests of the verify ``ordering`` cells.

Each toggle vector becomes the inputs of the cell's own cluster, so a
cell's trajectory is a pure function of the cell.  There is one pin per
toggle vector.  Any change to how a mode reaches the simulator that
moves a single packet shows up here.
"""

import pytest

from repro.verify.scenario import run_cell_config

DIGESTS = {
    "baseline": (
        {}, "4acb9cc5eb2c0772741229f0fda208df6e7279891f483b22c5057e1d805e2ae5"),
    "load_cache": (
        {"load_cache": True},
        "1cf149c9fc788e7cbe0c6d8fd10ccfb14671a05dad33e712e0b493313d1d802d"),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_ordering_cell_digest_is_pinned(name):
    toggles, digest = DIGESTS[name]
    result = run_cell_config({
        "toggles": toggles, "base_seed": 7, "scenario": "ordering",
        "scenario_config": {"messages": 20},
    })
    assert result["crash"] is None
    assert result["payload_sha256"] == digest
