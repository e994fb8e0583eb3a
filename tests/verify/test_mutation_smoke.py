"""Mutation smoke: the harness must catch the planted copy-plane bug.

``burst-skip-copy-end`` makes the burst-paced CopyTo stream "forget" its
closing ``copy-end`` frame, so the receiver never acks and the ordering
scenario's migration fails.  The per-page stream never reaches the bug.
The explorer must flag exactly the ``burst_pacing`` cells, and the
minimizer must shrink a widened failing cell to the single-knob delta
``{burst_pacing: True}`` with an empty (<= 5 swap) perturbation trace --
the acceptance criterion of the harness.
"""

import pytest

from repro.errors import SimulationError
from repro.obs.flight_recorder import load_postmortem
from repro.verify import (
    build_matrix,
    dump_repro,
    make_cell,
    minimize_failure,
    planted_mutation,
    replay_bundle,
    run_matrix,
)
from repro.verify.minimize import _shrink_trace
from repro.verify.scenario import verify_cell

SMALL = {"messages": 4, "storm_rounds": 12, "migrate_at_ms": 200}
MUT = "burst-skip-copy-end"

BASE_CONFIG = {
    "base_seed": 11,
    "scenario": "ordering",
    "scenario_config": SMALL,
    "mutation": MUT,
    "toggles": {},
    "perturb": None,
}


def _mutated_matrix():
    cells = build_matrix("sample:8", seed=11)
    return cells, run_matrix(cells, base_seed=11, scenario_config=SMALL,
                             mutation=MUT)


def test_mutation_breaks_only_burst_paced_migration():
    clean = verify_cell({"base_seed": 11, "scenario_config": SMALL}, 0)
    per_page = verify_cell({"base_seed": 11, "scenario_config": SMALL,
                            "mutation": MUT}, 0)
    burst = verify_cell({"base_seed": 11, "scenario_config": SMALL,
                         "mutation": MUT,
                         "toggles": {"burst_pacing": True}}, 0)
    # The per-page stream never reaches the bug.
    assert per_page["payload_sha256"] == clean["payload_sha256"]
    # A burst-paced CopyTo is never acked, so the migration fails.
    assert clean["stable"]["migration_success"]
    assert not burst["stable"]["migration_success"]
    assert burst["invariants_ok"]


def test_explorer_flags_exactly_the_burst_pacing_cells():
    cells, result = _mutated_matrix()
    assert not result.ok
    flagged = {f["index"] for f in result.failures}
    burst = {i for i, c in enumerate(cells)
             if c["toggles"].get("burst_pacing")}
    assert flagged == burst and burst
    for failure in result.failures:
        assert any("stable outcome fields differ" in r
                   for r in failure["reasons"])


def test_minimizer_shrinks_to_a_single_knob():
    _, result = _mutated_matrix()
    # Widen a caught cell with every other knob; at the default
    # tolerance the minimizer must strip all three bystanders.
    cell = make_cell({"burst_pacing": True, "adaptive_precopy": True,
                      "load_cache": True, "probe_placement": True})
    minimal = minimize_failure(cell, dict(BASE_CONFIG), result.results[0])
    assert minimal.cell["toggles"] == {"burst_pacing": True}
    trace = (minimal.cell["perturb"] or {}).get("replay") or []
    assert len(trace) <= 5
    assert minimal.dropped_toggles == [
        "adaptive_precopy", "load_cache", "probe_placement",
    ]


def test_minimal_repro_round_trips_through_a_bundle(tmp_path):
    cells, result = _mutated_matrix()
    cell = cells[result.failures[0]["index"]]
    minimal = minimize_failure(cell, dict(BASE_CONFIG), result.results[0])
    bundle = dump_repro(minimal, str(tmp_path / "repro"))

    manifest = load_postmortem(bundle)["manifest"]
    assert manifest["mutations"] == [MUT]
    repro = manifest["context"]["verify_repro"]
    assert repro["toggles"] == {"burst_pacing": True}
    assert repro["mutation"] == MUT

    verdict = replay_bundle(bundle)
    assert verdict["still_fails"]
    assert any("stable outcome fields differ" in r
               for r in verdict["reasons"])


def test_minimizer_refuses_a_passing_cell():
    cells = build_matrix("sample:8", seed=11)
    result = run_matrix(cells, base_seed=11, scenario_config=SMALL)
    assert result.ok
    config = dict(BASE_CONFIG, mutation=None)
    with pytest.raises(SimulationError):
        minimize_failure(cells[1], config, result.results[0])


def test_planted_mutation_context_manager_clears_on_exit():
    from repro.ipc.copyops import _PLANTED
    from repro.verify import planted

    with planted_mutation(MUT):
        assert planted() == [MUT]
        assert _PLANTED.burst_skip_copy_end
    assert planted() == []
    assert not _PLANTED.burst_skip_copy_end


def test_ddmin_finds_the_minimal_swap_set():
    """The trace reducer on a synthetic failure predicate: the cell
    fails iff swaps {21, 34} are both replayed.  ddmin must land on
    exactly that pair regardless of the other 18 recorded swaps."""

    class FakeProber:
        probes = 0

        def failure(self, cell):
            self.probes += 1
            replay = set((cell["perturb"] or {}).get("replay") or [])
            return ["boom"] if {21, 34} <= replay else []

    from repro.verify.matrix import make_cell

    full_trace = list(range(1, 41, 2))  # odd ordinals 1..39, incl. 21
    full_trace.append(34)
    cell = make_cell(perturb={"seed": 0, "rate": 0.0,
                              "replay": sorted(full_trace)})
    shrunk, dropped = _shrink_trace(cell, FakeProber())
    assert sorted(shrunk["perturb"]["replay"]) == [21, 34]
    assert dropped == len(full_trace) - 2
