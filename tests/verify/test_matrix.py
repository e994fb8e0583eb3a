"""The toggle-matrix explorer: cell construction, equivalence-class
derivation, and end-to-end classification."""

import pytest

from repro.errors import SimulationError
from repro.verify import build_matrix, make_cell, run_matrix, sample_matrix
from repro.verify.matrix import classify, full_matrix

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


# --------------------------------------------------------------- matrices

def test_sample_matrix_is_stratified_and_deterministic():
    cells = sample_matrix(8, seed=7)
    assert len(cells) == 8
    assert cells[0]["label"] == "baseline"
    classes = {c["expect"] for c in cells}
    assert classes == {"tolerant", "perturb", "fault"}
    assert sample_matrix(8, seed=7) == cells
    assert sample_matrix(12, seed=7)[:8] == cells  # sample grows stably


def test_full_matrix_covers_the_whole_toggle_product():
    from repro.verify.scenario import KNOBS

    cells = full_matrix(seed=0)
    # Every toggle vector survives as its delta set (the all-defaults
    # vector collapses into the baseline), + schedules + perturb seeds.
    vectors = {tuple(sorted(c["toggles"].items())) for c in cells
               if c["schedule"] is None and c["perturb"] is None}
    assert len(KNOBS) == 1
    assert len(vectors) == 2 ** len(KNOBS) == 2
    assert len(cells) == 13


def test_malformed_matrix_spec_raises():
    for spec in ("bogus", "sample:", "sample:x"):
        with pytest.raises(SimulationError):
            build_matrix(spec)


# ------------------------------------------------------------ exploration

def test_matrix_passes_on_main_and_parallel_equals_serial():
    cells = build_matrix("sample:8", seed=3)
    serial = run_matrix(cells, base_seed=3, scenario_config=SMALL)
    assert serial.ok, serial.summary()
    parallel = run_matrix(cells, base_seed=3, scenario_config=SMALL,
                          workers=2)
    assert parallel.to_json() == serial.to_json()


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
