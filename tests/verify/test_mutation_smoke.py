"""Mutation smoke: the harness must catch every planted bug.

``break-rebinding`` switches off lazy rebinding in the cluster a cell
builds (the same helper ``chaos --break-rebinding`` uses), so the
ordering scenario's client keeps sending to the migrated server's old
host and trips no-residual-dependency.  The bug does not depend on any
toggle or tie order: every ``tolerant`` and ``perturb`` cell must fail,
and the baseline's payload digest must move off its pin.
"""

import pytest

from repro.errors import SimulationError
from repro.verify import MUTATIONS, matrix, run_matrix
from repro.verify.scenario import verify_cell

from tests.verify.test_cell_digests import DIGESTS

SMALL = {"messages": 4, "storm_rounds": 12, "migrate_at_ms": 200}
MUT = "break-rebinding"


def _cell(toggles=None, mutation=None):
    return verify_cell({"base_seed": 11, "scenario_config": SMALL,
                        "toggles": toggles or {}, "mutation": mutation})


def test_mutation_breaks_rebinding_whatever_the_toggles():
    for toggles in ({}, {"load_cache": True}):
        clean = _cell(toggles)
        broken = _cell(toggles, MUT)
        assert clean["invariants_ok"]
        assert not broken["invariants_ok"]
        assert broken["invariants"]["no-residual-dependency"] > 0
        # The stale client loses requests it would have completed.
        assert broken["stable"]["completed"] < clean["stable"]["completed"]


def test_mutation_is_an_input_of_one_cell_only():
    """A mutated cell breaks only the cluster it builds: a clean cell
    run right after it replays the clean digest byte for byte."""
    before = _cell()
    _cell(mutation=MUT)
    assert _cell()["payload_sha256"] == before["payload_sha256"]


def test_unknown_mutation_raises():
    with pytest.raises(SimulationError, match="break-rebinding"):
        _cell(mutation="no-such-bug")


def test_explorer_flags_every_cell():
    cells = matrix(11)
    result = run_matrix(cells, base_seed=11, scenario_config=SMALL,
                        mutation=MUT)
    assert not result.ok
    assert {f["index"] for f in result.failures} == set(range(len(cells)))
    for failure in result.failures:
        assert any("no-residual-dependency" in r
                   for r in failure["reasons"])


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_every_planted_mutation_is_caught(name):
    """Every ``tolerant`` and ``perturb`` cell of ``matrix(7)`` fails, and
    the baseline digest moves off its seed-7 pin (same 20 messages).

    Fault cells are exempt: a fault schedule can send the server to ws0,
    the client's own host, and then the client holds no stale binding
    for a broken rebind to trip no-residual-dependency on.  With
    ``python -m repro verify --seed 7`` (10 messages) that happens under
    ``faults:mixed`` and ``faults:reorder``: those two cells pass and
    the other 15 fail.
    """
    result = run_matrix(matrix(7), base_seed=7,
                        scenario_config={"messages": 20}, mutation=name)
    failed = {f["index"] for f in result.failures}
    for i, cell in enumerate(result.cells):
        if cell["expect"] != "fault":
            assert i in failed, cell["label"]
    assert result.results[0]["payload_sha256"] != DIGESTS["baseline"][2]
