"""The verify cell list: cell construction, equivalence-class
derivation, and end-to-end classification."""

import pytest

from repro.errors import SimulationError
from repro.sim.random import derive_seed
from repro.verify import classify, make_cell, matrix, run_matrix

SMALL = {"messages": 4, "storm_rounds": 12, "migrate_at_ms": 200}
PERTURB = {"seed": 1, "rate": 0.2}


# ---------------------------------------------------------------- cells

def test_expect_class_derivation():
    assert make_cell()["expect"] == "baseline"
    assert make_cell(perturb=PERTURB)["expect"] == "perturb"
    assert make_cell(schedule="drop")["expect"] == "fault"
    # Faults are the weakest promise, whatever else the cell carries.
    assert make_cell(schedule="drop", perturb=PERTURB)["expect"] == "fault"


# ------------------------------------------------------------ the cell list

def test_matrix_lists_twelve_cells():
    from repro.faults import FAULT_SCHEDULES

    cells = matrix(7)
    assert len(FAULT_SCHEDULES) == 7
    assert len(cells) == 12
    assert cells[0]["label"] == "baseline"
    assert len({c["label"] for c in cells}) == 12
    assert matrix(7) == cells
    perturb_seeds = [derive_seed(7, f"verify:perturb:{i}") for i in range(4)]
    assert [c["expect"] for c in cells[:5]] == ["baseline"] + ["perturb"] * 4
    assert [c["perturb"]["seed"] for c in cells[1:5]] == perturb_seeds
    assert [c["schedule"] for c in cells[:5]] == [None] * 5
    assert [c["schedule"] for c in cells[5:]] == sorted(FAULT_SCHEDULES)
    assert {c["expect"] for c in cells[5:]} == {"fault"}


# ------------------------------------------------------------ exploration

def test_matrix_passes_on_main():
    result = run_matrix(matrix(3), base_seed=3, scenario_config=SMALL)
    assert result.ok, result.summary()
    assert len(result.results) == 12


def test_run_matrix_requires_a_baseline_first_cell():
    with pytest.raises(SimulationError):
        run_matrix([make_cell(perturb=PERTURB)], base_seed=0)


def test_classify_flags_crashes_but_not_digest_moves():
    cell = make_cell(perturb=PERTURB)
    baseline = {"payload_sha256": "aaa", "stable": {"completed": 1}}
    crashed = dict(baseline, crash="SimulationError: boom")
    assert classify(cell, crashed, baseline) == \
        ["scenario crashed: SimulationError: boom"]
    # A tie permutation may move the digest (and the event count); with
    # equal stable outcomes that is no failure.
    moved = {"payload_sha256": "bbb", "crash": None, "invariants_ok": True,
             "stable": {"completed": 1}}
    assert classify(cell, moved, baseline) == []


def test_classify_perturb_gates_stable_outcomes_exactly():
    baseline = {"payload_sha256": "aaa", "crash": None,
                "stable": {"completed": 5}}
    lost = {"payload_sha256": "bbb", "crash": None, "invariants_ok": True,
            "stable": {"completed": 4}}
    assert any("stable" in r
               for r in classify(make_cell(perturb=PERTURB), lost, baseline))
    # A fault cell promises only its invariants.
    assert classify(make_cell(schedule="drop"), lost, baseline) == []
    broken = dict(lost, invariants_ok=False,
                  invariants={"single-execution": 1})
    assert any("invariant" in r
               for r in classify(make_cell(schedule="drop"), broken,
                                 baseline))
