"""Pinned payload digests of the verify ``ordering`` cells.

Each toggle vector becomes the inputs of the cell's own cluster, so a
cell's trajectory is a pure function of the cell.  These digests were
recorded when the modes were still process-wide switches; any change to
how a mode reaches the simulator that moves a single packet shows up
here.
"""

import pytest

from repro.verify.scenario import run_cell_config

DIGESTS = {
    "baseline": (
        {}, "4acb9cc5eb2c0772741229f0fda208df6e7279891f483b22c5057e1d805e2ae5"),
    "burst_pacing": (
        {"burst_pacing": True},
        "63ee6b07c0cbb379709df51ab9d727331179fad6ee26056a766344f7be430c39"),
    "load_cache": (
        {"load_cache": True},
        "1cf149c9fc788e7cbe0c6d8fd10ccfb14671a05dad33e712e0b493313d1d802d"),
    "all": (
        {"adaptive_precopy": True, "burst_pacing": True, "load_cache": True},
        "6711f605879417e46722f3110f0b4781378d7f0d1810394f0bdd3174587c7183"),
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
