"""The chaos campaign's acceptance contract.

* Replay determinism: the same (schedule, seed) grid produces a
  byte-identical payload and verdict table whether it ran serially or
  across worker processes (the sweep engine's guarantee, inherited).
* Under every fault schedule, all four invariants hold.
* The intentionally-broken configuration (lazy rebinding disabled)
  *must* trip no-residual-dependency -- proof the harness can actually
  see the class of bug it exists for.
"""

import pytest

from repro.errors import SimulationError
from repro.faults.campaign import (
    FAULT_SCHEDULES,
    build_fault_plane,
    campaign_ok,
    campaign_spec,
    chaos_scenario,
    run_campaign,
    schedule_names,
    verdict_table,
)
from repro.faults.invariants import INVARIANTS
from repro.faults.models import (
    BurstDropFault,
    CorruptFault,
    DropFault,
    DuplicateFault,
    ReorderFault,
)
from repro.parallel import scenario_names


class TestScheduleRegistry:
    def test_chaos_is_a_registered_scenario(self):
        assert "chaos" in scenario_names()

    def test_schedule_names_sorted_and_complete(self):
        assert schedule_names() == sorted(FAULT_SCHEDULES)
        # The acceptance bar: at least 5 distinct fault types swept.
        assert len(FAULT_SCHEDULES) >= 5

    def test_fault_plane_pipeline_order_is_fixed(self):
        plane = build_fault_plane({
            "corrupt": 0.1, "drop": 0.1, "reorder": 0.1,
            "duplicate": 0.1, "burst": (0.1, 0.5),
        })
        assert [type(m) for m in plane.models] == [
            DropFault, BurstDropFault, DuplicateFault, ReorderFault,
            CorruptFault,
        ]

    def test_unknown_schedule_rejected_by_scenario(self):
        with pytest.raises(SimulationError, match="unknown fault schedule"):
            chaos_scenario({"schedule": "gremlins"}, seed=0)

    def test_unknown_schedule_rejected_by_spec(self):
        with pytest.raises(SimulationError, match="unknown fault schedule"):
            campaign_spec(schedules=["drop", "gremlins"])


class TestReplayDeterminism:
    def test_serial_and_parallel_runs_are_byte_identical(self):
        kwargs = dict(schedules=["drop", "crash"], seeds=3, master_seed=11,
                      messages=12)
        serial = run_campaign(workers=1, **kwargs)
        parallel = run_campaign(workers=2, **kwargs)
        assert parallel.workers_used == 2
        assert serial.to_json() == parallel.to_json()
        assert verdict_table(serial) == verdict_table(parallel)

    def test_same_seed_replays_identically(self):
        a = chaos_scenario({"schedule": "mixed", "messages": 10}, seed=5)
        b = chaos_scenario({"schedule": "mixed", "messages": 10}, seed=5)
        assert a == b

    def test_distinct_seeds_give_distinct_trajectories(self):
        runs = {
            (r["events"], r["packets"], tuple(sorted(r["faults"].items())))
            for r in (
                chaos_scenario({"schedule": "mixed", "messages": 10}, seed=s)
                for s in range(4)
            )
        }
        assert len(runs) > 1


class TestInvariantsHoldUnderEverySchedule:
    def test_all_schedules_all_seeds_pass(self):
        result = run_campaign(seeds=2, master_seed=3, messages=15)
        assert campaign_ok(result)
        for row in result.rows:
            for run in row:
                assert run["invariants"] == {name: 0 for name in INVARIANTS}
                assert run["invariants_ok"]
                # The harness actually watched the run.
                assert run["deliveries_checked"] > 0
                assert run["events_checked"] > 0

    def test_every_schedule_actually_injects_faults(self):
        result = run_campaign(seeds=2, master_seed=3, messages=15)
        for ci, config in enumerate(result.spec.configs):
            injected = sum(
                sum(run["faults"].values()) for run in result.rows[ci]
            )
            assert injected > 0, (
                f"schedule {config['schedule']!r} injected no faults -- "
                "the campaign is not stressing anything"
            )

    def test_crash_schedule_crashes_reboots_and_evicts(self):
        run = chaos_scenario({"schedule": "crash", "messages": 10}, seed=1)
        kinds = [kind for _, _, kind in run["crash_log"]]
        assert kinds == ["crash", "reboot"]
        assert run["evictions"] >= 1
        assert run["bindings_scrubbed"] >= 0
        assert run["invariants_ok"]


class TestBrokenRebindingIsCaught:
    """Disable lazy rebinding entirely and the campaign must FAIL
    no-residual-dependency: stale senders keep hitting the old host
    long after the migration committed."""

    CONFIG = {"schedule": "drop", "messages": 20}

    def test_broken_mode_trips_no_residual_dependency(self):
        run = chaos_scenario(dict(self.CONFIG, break_rebinding=True), seed=42)
        assert run["migration"] and run["migration"]["success"]
        assert run["invariants"]["no-residual-dependency"] > 0
        assert not run["invariants_ok"]

    @pytest.mark.parametrize("schedule", sorted(FAULT_SCHEDULES))
    def test_the_server_never_migrates_onto_the_clients_host(self,
                                                              schedule):
        # ws0 runs the client and is in its owner's use, so it takes no
        # remote work: every run leaves the client a stale binding, and
        # the broken mode trips under every schedule.
        run = chaos_scenario(
            dict(self.CONFIG, schedule=schedule, break_rebinding=True),
            seed=11)
        assert run["migration"]["dest_host"] != "ws0"
        assert run["invariants"]["no-residual-dependency"] > 0

    def test_control_run_is_clean(self):
        run = chaos_scenario(self.CONFIG, seed=42)
        assert run["invariants"] == {name: 0 for name in INVARIANTS}
        assert run["invariants_ok"]
        assert run["completed"] == run["messages"]

    def test_campaign_verdict_goes_fail(self):
        result = run_campaign(schedules=["drop"], seeds=2, master_seed=0,
                              messages=20, break_rebinding=True)
        assert not campaign_ok(result)
        table = verdict_table(result)
        assert "FAIL" in table and "PASS" not in table

    def test_replay_failing_run_writes_loadable_bundle(self, tmp_path):
        from repro.faults import replay_failing_run
        from repro.obs import load_postmortem

        result = run_campaign(schedules=["drop"], seeds=1, master_seed=0,
                              messages=20, break_rebinding=True)
        assert not campaign_ok(result)
        bundle_dir = replay_failing_run(result, str(tmp_path / "bundle"))
        assert bundle_dir is not None
        bundle = load_postmortem(bundle_dir)
        manifest = bundle["manifest"]
        assert manifest["reason"] == "invariant-violation"
        assert manifest["context"]["scenario"] == "chaos"
        assert manifest["context"]["schedule"] == "drop"
        assert manifest["context"]["seed"] == result.spec.unit_seed(0, 0)
        assert not bundle["invariants"]["ok"]
        assert bundle["invariants"]["summary"]["no-residual-dependency"] > 0
        # The trace tail captured real traffic up to the violation.
        assert bundle["trace"]["traceEvents"]
        assert bundle["metrics"]["cluster"]

    def test_replay_on_clean_campaign_returns_none(self, tmp_path):
        from repro.faults import replay_failing_run

        result = run_campaign(schedules=["drop"], seeds=1, master_seed=0,
                              messages=10)
        assert campaign_ok(result)
        assert replay_failing_run(result, str(tmp_path)) is None

    def test_chaos_cli_exits_nonzero_and_dumps_postmortem(self, tmp_path,
                                                          capsys):
        from repro.__main__ import main
        from repro.obs import load_postmortem

        bundle_dir = tmp_path / "pm"
        rc = main(["chaos", "--schedules", "drop", "--seeds", "1",
                   "--messages", "20", "--break-rebinding",
                   "--postmortem", str(bundle_dir)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "FAIL" in captured.out
        assert "postmortem bundle" in captured.err
        assert load_postmortem(str(bundle_dir))["manifest"][
            "reason"] == "invariant-violation"

    def test_chaos_cli_clean_run_exits_zero_no_bundle(self, tmp_path,
                                                      capsys):
        from repro.__main__ import main

        bundle_dir = tmp_path / "pm"
        rc = main(["chaos", "--schedules", "drop", "--seeds", "1",
                   "--messages", "10", "--postmortem", str(bundle_dir)])
        capsys.readouterr()
        assert rc == 0
        assert not bundle_dir.exists()

    def test_postmortem_replay_does_not_perturb_verdict_payload(
            self, tmp_path):
        # The armed replay enables tracing/metrics; the deterministic
        # verdict fields must match the unarmed run exactly.
        import json

        base = chaos_scenario(
            dict(self.CONFIG, break_rebinding=True), seed=42
        )
        armed = chaos_scenario(
            dict(self.CONFIG, break_rebinding=True,
                 postmortem_dir=str(tmp_path / "pm")),
            seed=42,
        )
        armed.pop("postmortem")
        assert json.dumps(armed, sort_keys=True, default=str) == \
            json.dumps(base, sort_keys=True, default=str)


class TestVerdictTable:
    def test_table_lists_every_schedule_and_invariant(self):
        result = run_campaign(schedules=["drop", "reorder"], seeds=2,
                              master_seed=7, messages=10)
        table = verdict_table(result)
        for name in INVARIANTS:
            assert name in table
        assert "drop" in table and "reorder" in table
        assert table.strip().endswith("(0 violation(s))")
        assert "verdict: PASS" in table
