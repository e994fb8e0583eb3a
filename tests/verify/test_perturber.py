"""The schedule perturbation engine: off by default, byte-identical at
rate 0, the same trajectory for the same seed, and an input of the one
cluster it is handed to."""

from repro.cluster import build_cluster
from repro.sim import Simulator
from repro.verify import TiePerturber, make_cell
from repro.verify.matrix import cell_config
from repro.verify.scenario import verify_cell

SMALL = {"messages": 4, "storm_rounds": 12, "migrate_at_ms": 200}


def _cell(perturb=None):
    return verify_cell(cell_config(make_cell(perturb=perturb), 11, SMALL))


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
    # This is how a failing perturbed cell replays: rerun its seed.
    a = _cell(perturb={"seed": 9, "rate": 0.5})
    b = _cell(perturb={"seed": 9, "rate": 0.5})
    assert a["payload_sha256"] == b["payload_sha256"]
    assert a["perturb"] == b["perturb"]


# ------------------------------------------------------------- engine hooks

def test_armed_perturber_is_consumed_by_the_next_simulator_only():
    """A perturber handed to one cluster's builder reaches that
    cluster's simulator only; the next cluster built in the process
    runs unperturbed (there is no process-global slot left to leak)."""
    p = TiePerturber(seed=0)
    first = build_cluster(n_workstations=2, seed=0, perturber=p)
    assert first.sim._perturber is p
    # The builder's own t=0 events already went through the perturber.
    assert p.opportunities > 0
    second = build_cluster(n_workstations=2, seed=0)
    assert second.sim._perturber is None


def test_assign_swaps_adjacent_keys_only():
    """A taken opportunity files the new entry just before the youngest
    pending same-instant key and leaves everything else."""
    p = TiePerturber(rate=1.0)
    sim = Simulator(seed=0)
    keys = [p.assign(sim, 100, 1), p.assign(sim, 100, 2),
            p.assign(sim, 100, 3)]
    # seq 1 opens the instant; seq 2 swaps in front of it (1 - 0.5);
    # seq 3 swaps in front of the youngest pending key, seq 1, landing
    # between the two newest keys 0.5 and 1.
    assert keys == [1, 0.5, 0.75]
    assert p.swaps == [1, 2] and p.opportunities == 2
