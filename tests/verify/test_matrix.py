"""The toggle-matrix explorer: cell construction, equivalence-class
derivation, and end-to-end classification."""

import pytest

from repro.errors import SimulationError
from repro.sim.random import derive_seed
from repro.verify import classify, make_cell, matrix, run_matrix

SMALL = {"messages": 4, "storm_rounds": 12, "migrate_at_ms": 200}


# ---------------------------------------------------------------- cells

def test_cells_record_only_deltas_from_the_defaults():
    assert make_cell({"load_cache": False})["toggles"] == {}  # the default
    assert make_cell({"load_cache": True})["toggles"] == {"load_cache": True}


def test_expect_class_derivation():
    assert make_cell()["expect"] == "tolerant"
    assert make_cell({"load_cache": True})["expect"] == "tolerant"
    assert make_cell(perturb={"seed": 1, "rate": 0.2})["expect"] == "perturb"
    assert make_cell(schedule="drop")["expect"] == "fault"
    # Faults are the weakest promise, whatever else the cell carries.
    assert make_cell({"load_cache": True},
                     schedule="drop")["expect"] == "fault"


def test_unknown_toggle_raises():
    with pytest.raises(SimulationError):
        make_cell({"warp_drive": True})


# ------------------------------------------------------------ the cell list

def test_matrix_covers_the_whole_toggle_product():
    from repro.faults import FAULT_SCHEDULES
    from repro.verify.matrix import KNOBS

    cells = matrix(7)
    assert len(KNOBS) == 1 and len(FAULT_SCHEDULES) == 7
    assert len(cells) == 17
    assert cells[0]["label"] == "baseline"
    assert len({c["label"] for c in cells}) == 17
    assert matrix(7) == cells
    perturb_seeds = [derive_seed(7, f"verify:perturb:{i}") for i in range(4)]
    for toggles, block in (({}, cells[0:5]),
                           ({"load_cache": True}, cells[5:10])):
        assert [c["toggles"] for c in block] == [toggles] * 5
        assert [c["expect"] for c in block] == ["tolerant"] + ["perturb"] * 4
        assert [c["perturb"]["seed"] for c in block[1:]] == perturb_seeds
    assert [c["schedule"] for c in cells[10:]] == sorted(FAULT_SCHEDULES)
    assert {c["expect"] for c in cells[10:]} == {"fault"}


# ------------------------------------------------------------ exploration

def test_matrix_passes_on_main():
    result = run_matrix(matrix(3), base_seed=3, scenario_config=SMALL)
    assert result.ok, result.summary()
    assert len(result.results) == 17


def test_run_matrix_requires_a_baseline_first_cell():
    with pytest.raises(SimulationError):
        run_matrix([make_cell({"load_cache": True})], base_seed=0)


def test_classify_flags_crashes_but_not_digest_moves():
    cell = make_cell({"load_cache": True})
    baseline = {"payload_sha256": "aaa", "stable": {"completed": 1},
                "kpis": {"events": 100}}
    crashed = dict(baseline, crash="SimulationError: boom")
    assert classify(cell, crashed, baseline) == \
        ["scenario crashed: SimulationError: boom"]
    # Every knob changes which packets exist, so a moved digest with
    # equal outcomes and KPIs is no failure.
    moved = {"payload_sha256": "bbb", "crash": None, "invariants_ok": True,
             "stable": {"completed": 1}, "kpis": {"events": 100}}
    assert classify(cell, moved, baseline) == []


def test_classify_tolerant_gates_stable_exactly_and_kpis_by_tolerance():
    cell = make_cell({"load_cache": True})
    baseline = {"payload_sha256": "aaa", "crash": None,
                "stable": {"completed": 5}, "kpis": {"events": 100}}
    ok = {"payload_sha256": "bbb", "crash": None, "invariants_ok": True,
          "stable": {"completed": 5}, "kpis": {"events": 60}}
    assert classify(cell, ok, baseline, tolerance=0.75) == []
    # A lost request is never within tolerance...
    lost = dict(ok, stable={"completed": 4})
    assert any("stable" in r for r in classify(cell, lost, baseline))
    # ...and a KPI collapse beyond the tolerance trips.
    collapsed = dict(ok, kpis={"events": 2})
    assert any("KPI events" in r
               for r in classify(cell, collapsed, baseline, tolerance=0.75))
