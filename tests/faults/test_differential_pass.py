"""The differential pass of ``repro chaos``: the lossless unit and its
tie-perturbed reruns hold every invariant and agree on the stable
outcome fields, a rerun that disagrees fails the pass, and the planted
rebinding bug fails every campaign unit and every pass record.

``break_rebinding`` is an input of the scenario every unit and record
runs: it switches off lazy rebinding in the cluster that run builds, so
the client keeps sending to the migrated server's old host and trips
no-residual-dependency.  The migration never lands on the client's own
host, so the bug does not depend on any tie order or fault schedule.
"""

from repro.__main__ import main
from repro.faults import FAULT_SCHEDULES, TiePerturber, campaign
from repro.faults.campaign import (
    PASS_RERUNS,
    chaos_scenario,
    differential_pass,
    pass_table,
    run_campaign,
)
from repro.obs.diff import EXIT_DIFFERENT

from tests.faults.test_chaos_digests import PASS_DIGESTS

SMALL = {"schedule": None, "messages": 4, "storm_rounds": 12,
         "migrate_at_ms": 200}


def _digests(result):
    return [record["payload_sha256"] for record in result["records"]]


def test_pass_holds_on_a_clean_cluster():
    result = differential_pass(master_seed=3, messages=3)
    assert result["ok"], pass_table(result)
    lossless, *reruns = result["records"]
    assert len(reruns) == PASS_RERUNS
    assert lossless["perturb"] is None and lossless["failures"] == []
    # The reruns took swaps and moved the trajectory, not the outcome.
    for record in reruns:
        assert record["perturb"]["swaps"]
        assert record["stable"] == lossless["stable"]
        assert record["payload_sha256"] != lossless["payload_sha256"]


def test_a_rerun_whose_stable_outcome_differs_fails_the_pass(
        monkeypatch, capsys):
    """A constructed mismatch: every perturbed rerun loses one completed
    request.  The invariants still hold, so only the stable-field
    comparison can fail the pass -- and the CLI must exit 1 on it even
    though the campaign itself is clean."""
    real = campaign.chaos_scenario

    def lossy_reruns(config, seed):
        payload = real(config, seed)
        if config["perturber"] is not None:
            payload["completed"] -= 1
        return payload

    monkeypatch.setattr(campaign, "chaos_scenario", lossy_reruns)
    result = differential_pass(master_seed=3, messages=3)
    assert not result["ok"]
    lossless, *reruns = result["records"]
    assert lossless["failures"] == []
    for record in reruns:
        assert record["payload"]["invariants_ok"]
        assert len(record["failures"]) == 1
        assert record["failures"][0].startswith("stable outcome fields differ")

    rc = main(["chaos", "--schedules", "drop", "--seeds", "1",
               "--messages", "3", "--seed", "3"])
    out = capsys.readouterr().out
    assert "verdict: PASS (0 violation(s))" in out
    assert f"differential verdict: FAIL ({PASS_RERUNS} of" in out
    assert rc == EXIT_DIFFERENT


def _run(perturb_seed, broken):
    perturber = None if perturb_seed is None else TiePerturber(perturb_seed)
    return chaos_scenario(
        dict(SMALL, perturber=perturber, break_rebinding=broken), 11)


def test_mutation_breaks_rebinding_whatever_the_tie_order():
    for perturb_seed in (None, 3):
        clean, broken = _run(perturb_seed, False), _run(perturb_seed, True)
        assert clean["invariants_ok"]
        assert not broken["invariants_ok"]
        assert broken["invariants"]["no-residual-dependency"] > 0
        # The stale client loses requests it would have completed.
        assert broken["completed"] < clean["completed"]


def test_mutation_is_an_input_of_one_run_only():
    """A broken pass breaks only the clusters it builds: a clean pass
    run right after it replays the clean digests byte for byte."""
    before = differential_pass(master_seed=11, messages=4)
    differential_pass(master_seed=11, messages=4, break_rebinding=True)
    assert _digests(differential_pass(master_seed=11, messages=4)) == \
        _digests(before)


def test_the_pass_flags_every_record_with_the_broken_invariant():
    """Seed 11, 4 messages: each record's failure names the invariant
    the stale binding trips, and nothing else."""
    broken = differential_pass(master_seed=11, messages=4,
                               break_rebinding=True)
    assert not broken["ok"]
    assert len(broken["records"]) == 1 + PASS_RERUNS
    for record in broken["records"]:
        invariants = record["payload"]["invariants"]
        assert {k for k, v in invariants.items() if v} == \
            {"no-residual-dependency"}
        # The reruns still agree with the lossless record: the one
        # failure is the invariant, not a stable-field mismatch.
        [reason] = record["failures"]
        assert reason.startswith("invariant violations:")
        assert "no-residual-dependency" in reason


def test_the_planted_bug_fails_every_unit_and_every_record():
    """Seed 7, 20 messages: every campaign unit (one per schedule) and
    every pass record trips no-residual-dependency, and the lossless
    record moves off its pin."""
    result = run_campaign(seeds=1, master_seed=7, messages=20,
                          break_rebinding=True)
    units = [run for row in result.rows for run in row]
    assert len(units) == len(FAULT_SCHEDULES)
    for run in units:
        assert run["invariants"]["no-residual-dependency"] > 0
    broken = differential_pass(master_seed=7, messages=20,
                               break_rebinding=True)
    assert not broken["ok"]
    for record in broken["records"]:
        assert record["payload"]["invariants"]["no-residual-dependency"] > 0
        assert record["failures"]
    assert broken["records"][0]["payload_sha256"] != PASS_DIGESTS["lossless"]
