"""The schedule perturbation engine: off by default, byte-identical at
rate 0, the same trajectory for the same seed, and an input of the one
cluster it is handed to."""

from repro.cluster import build_cluster
from repro.faults import TiePerturber
from repro.faults.campaign import canonical_digest, chaos_scenario, stable_outcome
from repro.sim import Simulator

SMALL = {"schedule": None, "messages": 4, "storm_rounds": 12,
         "migrate_at_ms": 200}


def _run(perturber=None):
    payload = chaos_scenario(dict(SMALL, perturber=perturber), 11)
    return payload, canonical_digest(payload)


# ------------------------------------------------------------- default off

def test_no_perturber_installed_by_default():
    sim = Simulator(seed=0)
    assert sim._perturber is None


def test_hook_compiled_in_is_byte_identical_when_off():
    """A/B for the acceptance criterion: with the hook present but no
    perturber installed (a) and with a perturber installed that never
    takes a swap (b), trajectories are byte-identical -- the hook's only
    observable cost is the attribute test."""
    perturber = TiePerturber(seed=5, rate=0.0)
    _, a = _run()
    _, b = _run(perturber)
    assert perturber.swaps == []
    assert perturber.opportunities > 0  # ties existed to decline
    assert a == b


# ---------------------------------------------------------- perturbation on

def test_fuzzing_changes_the_trajectory_but_not_outcomes():
    perturber = TiePerturber(seed=3, rate=0.5)
    base, base_digest = _run()
    fuzzed, fuzzed_digest = _run(perturber)
    assert perturber.swaps, "rate 0.5 never found a tie to swap"
    # The trajectory moved...
    assert fuzzed_digest != base_digest
    # ...but the protocol outcome did not (the §3.1-3.2 commutation).
    assert fuzzed["invariants_ok"]
    assert stable_outcome(fuzzed) == stable_outcome(base)


def test_same_seed_same_trajectory():
    # This is how a failing perturbed rerun replays: rerun its seed.
    pa, pb = TiePerturber(seed=9, rate=0.5), TiePerturber(seed=9, rate=0.5)
    assert _run(pa)[1] == _run(pb)[1]
    assert pa.describe() == pb.describe()


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
