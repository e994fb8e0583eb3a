"""Mutation smoke: the harness must catch the planted bug.

``break_rebinding`` is an input of the scenario every cell runs (the
same input ``chaos --break-rebinding`` sets): it switches off lazy
rebinding in the cluster the cell builds, so the client keeps sending
to the migrated server's old host and trips no-residual-dependency.
The migration never lands on the client's own host, so every cell
leaves the client a stale binding: the bug does not depend on any tie
order or fault schedule, every cell must fail, and the baseline's
payload digest must move off its pin.
"""

from repro.verify import make_cell, matrix, run_matrix
from repro.verify.matrix import cell_config
from repro.verify.scenario import verify_cell

from tests.verify.test_cell_digests import DIGESTS

SMALL = {"messages": 4, "storm_rounds": 12, "migrate_at_ms": 200}


def _cell(perturb=None, break_rebinding=False):
    return verify_cell(cell_config(make_cell(perturb=perturb), 11, SMALL,
                                   break_rebinding=break_rebinding))


def test_mutation_breaks_rebinding_whatever_the_tie_order():
    for perturb in (None, {"seed": 3, "rate": 0.25}):
        clean = _cell(perturb)
        broken = _cell(perturb, break_rebinding=True)
        assert clean["invariants_ok"]
        assert not broken["invariants_ok"]
        assert broken["invariants"]["no-residual-dependency"] > 0
        # The stale client loses requests it would have completed.
        assert broken["stable"]["completed"] < clean["stable"]["completed"]


def test_mutation_is_an_input_of_one_cell_only():
    """A mutated cell breaks only the cluster it builds: a clean cell
    run right after it replays the clean digest byte for byte."""
    before = _cell()
    _cell(break_rebinding=True)
    assert _cell()["payload_sha256"] == before["payload_sha256"]


def test_explorer_flags_every_cell():
    cells = matrix(11)
    result = run_matrix(cells, base_seed=11, scenario_config=SMALL,
                        break_rebinding=True)
    assert not result.ok
    assert {f["index"] for f in result.failures} == set(range(len(cells)))
    for failure in result.failures:
        assert any("no-residual-dependency" in r
                   for r in failure["reasons"])


def test_the_planted_bug_is_caught_in_every_cell():
    """Every cell of ``matrix(7)`` fails -- fault cells included -- and
    the baseline digest moves off its seed-7 pin (same 20 messages)."""
    result = run_matrix(matrix(7), base_seed=7,
                        scenario_config={"messages": 20},
                        break_rebinding=True)
    assert {f["index"] for f in result.failures} == \
        set(range(len(result.cells)))
    assert result.results[0]["payload_sha256"] != DIGESTS["baseline"][1]
