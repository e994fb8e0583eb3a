"""Mutation smoke: the harness must catch the planted rebinding bug.

``break-rebinding`` switches off lazy rebinding in the cluster a cell
builds (the same helper ``chaos --break-rebinding`` uses), so the
ordering scenario's client keeps sending to the migrated server's old
host and trips no-residual-dependency.  The bug does not depend on any
toggle: the explorer must flag every cell, and the minimizer must
shrink a widened failing cell to the baseline toggles ``{}`` with an
empty perturbation trace -- the acceptance criterion of the harness.
"""

import pytest

from repro.errors import SimulationError
from repro.obs.flight_recorder import load_postmortem
from repro.verify import (
    build_matrix,
    dump_repro,
    make_cell,
    minimize_failure,
    replay_bundle,
    run_matrix,
)
from repro.verify.minimize import _shrink_trace
from repro.verify.scenario import verify_cell

SMALL = {"messages": 4, "storm_rounds": 12, "migrate_at_ms": 200}
MUT = "break-rebinding"

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


def _cell(toggles=None, mutation=None):
    return verify_cell({"base_seed": 11, "scenario_config": SMALL,
                        "toggles": toggles or {}, "mutation": mutation}, 0)


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
    cells, result = _mutated_matrix()
    assert not result.ok
    assert {f["index"] for f in result.failures} == set(range(len(cells)))
    for failure in result.failures:
        assert any("no-residual-dependency" in r
                   for r in failure["reasons"])


def test_minimizer_shrinks_to_the_baseline_toggles():
    _, result = _mutated_matrix()
    # Widen a caught cell with the host-state caches; at the default
    # tolerance the minimizer must strip the bystander knob.
    cell = make_cell({"load_cache": True})
    minimal = minimize_failure(cell, dict(BASE_CONFIG), result.results[0])
    assert minimal.cell["toggles"] == {}
    trace = (minimal.cell["perturb"] or {}).get("replay") or []
    assert len(trace) <= 5
    assert minimal.dropped_toggles == ["load_cache"]


def test_minimal_repro_round_trips_through_a_bundle(tmp_path):
    cells, result = _mutated_matrix()
    cell = cells[result.failures[-1]["index"]]
    minimal = minimize_failure(cell, dict(BASE_CONFIG), result.results[0])
    bundle = dump_repro(minimal, str(tmp_path / "repro"))

    manifest = load_postmortem(bundle)["manifest"]
    assert manifest["mutations"] == [MUT]
    repro = manifest["context"]["verify_repro"]
    assert repro["toggles"] == {}
    assert repro["mutation"] == MUT

    verdict = replay_bundle(bundle)
    assert verdict["still_fails"]
    assert any("no-residual-dependency" in r for r in verdict["reasons"])


def test_minimizer_refuses_a_passing_cell():
    cells = build_matrix("sample:8", seed=11)
    result = run_matrix(cells, base_seed=11, scenario_config=SMALL)
    assert result.ok
    config = dict(BASE_CONFIG, mutation=None)
    with pytest.raises(SimulationError):
        minimize_failure(cells[1], config, result.results[0])


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
