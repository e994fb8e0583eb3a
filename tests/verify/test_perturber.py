"""The schedule perturbation engine: off by default, byte-identical at
rate 0, deterministic under replay."""

from repro.sim import Simulator
from repro.sim.engine import arm_perturber
from repro.verify import TiePerturber
from repro.verify.scenario import verify_cell

SMALL = {"messages": 4, "storm_rounds": 12, "migrate_at_ms": 200}


def _cell(**overrides):
    config = {"base_seed": 11, "scenario_config": SMALL}
    config.update(overrides)
    return verify_cell(config, 0)


# ------------------------------------------------------------- default off

def test_no_perturber_installed_by_default():
    sim = Simulator(seed=0)
    assert sim._perturber is None


def test_hook_compiled_in_is_byte_identical_when_off():
    """A/B for the acceptance criterion: with the hook present but no
    perturber installed (a) and with a perturber installed that never
    takes a swap (b), trajectories are byte-identical -- the hook's only
    observable cost is the attribute test."""
    a = _cell()
    b = _cell(perturb={"seed": 5, "rate": 0.0})
    assert a["crash"] is None and b["crash"] is None
    assert b["perturb"]["swaps"] == []
    assert b["perturb"]["opportunities"] > 0  # ties existed to decline
    assert a["payload_sha256"] == b["payload_sha256"]


# ---------------------------------------------------------- perturbation on

def test_fuzzing_changes_the_trajectory_but_not_outcomes():
    base = _cell()
    fuzzed = _cell(perturb={"seed": 3, "rate": 0.5})
    assert fuzzed["crash"] is None
    assert fuzzed["perturb"]["swaps"], "rate 0.5 never found a tie to swap"
    # The trajectory moved...
    assert fuzzed["payload_sha256"] != base["payload_sha256"]
    # ...but the protocol outcome did not (the §3.1-3.2 commutation).
    assert fuzzed["invariants_ok"]
    assert fuzzed["stable"] == base["stable"]


def test_same_seed_same_trajectory():
    a = _cell(perturb={"seed": 9, "rate": 0.5})
    b = _cell(perturb={"seed": 9, "rate": 0.5})
    assert a["payload_sha256"] == b["payload_sha256"]
    assert a["perturb"] == b["perturb"]


def test_replaying_the_recorded_trace_reproduces_the_fuzz_run():
    fuzz = _cell(perturb={"seed": 4, "rate": 0.4})
    assert fuzz["perturb"]["swaps"]
    replay = _cell(perturb={"seed": 0, "rate": 0.0,
                            "replay": fuzz["perturb"]["swaps"]})
    assert replay["payload_sha256"] == fuzz["payload_sha256"]
    assert replay["perturb"]["swaps"] == fuzz["perturb"]["swaps"]


def test_replay_subset_is_a_different_permutation():
    fuzz = _cell(perturb={"seed": 4, "rate": 0.4})
    swaps = fuzz["perturb"]["swaps"]
    assert len(swaps) >= 2
    partial = _cell(perturb={"seed": 0, "rate": 0.0, "replay": swaps[:1]})
    assert partial["perturb"]["swaps"] == swaps[:1]
    assert partial["payload_sha256"] != fuzz["payload_sha256"]


# ------------------------------------------------------------- engine hooks

def test_armed_perturber_is_consumed_by_the_next_simulator_only():
    p = TiePerturber(seed=0)
    arm_perturber(p)
    first = Simulator(seed=0)
    assert first._perturber is p
    second = Simulator(seed=0)
    assert second._perturber is None


def test_assign_swaps_adjacent_keys_only():
    """One taken opportunity files the new entry just before the
    youngest pending same-instant key and leaves everything else."""
    p = TiePerturber(replay=[2])
    sim = Simulator(seed=0)
    keys = [p.assign(sim, 100, 1), p.assign(sim, 100, 2),
            p.assign(sim, 100, 3)]
    # Opportunity 1 (seq 2) declined; opportunity 2 (seq 3) swapped in
    # front of seq 2 via a fractional key.
    assert keys[0] == 1 and keys[1] == 2
    assert 1 < keys[2] < 2
    assert p.swaps == [2] and p.opportunities == 2
