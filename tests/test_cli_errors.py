"""Error paths of the ``sweep`` and ``chaos`` subcommands: bad input
must exit 2 with a diagnostic on stderr (never a traceback), and a
failing campaign must exit 1.

``repro diff`` and ``repro chaos`` share one exit-code contract, defined
in one place (:mod:`repro.obs.diff`): 0 checked clean, 1 checked and
found a difference, 2 never checked (usage error)."""

import json

import pytest

from repro.__main__ import main
from repro.obs.diff import EXIT_DIFFERENT, EXIT_OK, EXIT_USAGE
from repro.obs.report import new_report, write_report


class TestSweepErrors:
    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["sweep", "--scenario", "nonesuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'nonesuch'" in err
        assert "ping" in err  # the known names are listed

    def test_malformed_set_without_equals_exits_2(self, capsys):
        assert main(["sweep", "--scenario", "ping",
                     "--set", "count"]) == 2
        assert "bad --set 'count'" in capsys.readouterr().err

    def test_malformed_set_with_empty_values_exits_2(self, capsys):
        assert main(["sweep", "--scenario", "ping",
                     "--set", "count="]) == 2
        assert "bad --set" in capsys.readouterr().err

    def test_malformed_set_with_empty_key_exits_2(self, capsys):
        assert main(["sweep", "--scenario", "ping",
                     "--set", "=5"]) == 2
        assert "bad --set" in capsys.readouterr().err

    def test_zero_replications_exits_2(self, capsys):
        assert main(["sweep", "--scenario", "ping",
                     "--replications", "0"]) == 2
        assert "at least one replication" in capsys.readouterr().err


class TestChaosErrors:
    def test_unknown_schedule_exits_2(self, capsys):
        assert main(["chaos", "--schedules", "drop,gremlins",
                     "--seeds", "1"]) == 2
        err = capsys.readouterr().err
        assert "unknown fault schedule 'gremlins'" in err
        # The diagnostic teaches the valid vocabulary.
        for name in ("drop", "burst", "crash", "mixed"):
            assert name in err

    def test_zero_seeds_exits_2(self, capsys):
        assert main(["chaos", "--schedules", "drop", "--seeds", "0"]) == 2
        assert "at least one replication" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        rc = main(["chaos", "--schedules", "drop", "--seeds", "1",
                   "--messages", "10",
                   "--out", str(tmp_path / "no" / "dir" / "x.json")])
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err

    def test_unwritable_out_exits_2_even_when_the_campaign_fails(
            self, tmp_path, capsys):
        # A result that cannot be kept was never checked: usage wins.
        rc = main(["chaos", "--schedules", "drop", "--seeds", "1",
                   "--messages", "3", "--seed", "3", "--break-rebinding",
                   "--out", str(tmp_path / "no" / "dir" / "x.json")])
        assert rc == EXIT_USAGE
        assert "differential verdict: FAIL" in capsys.readouterr().out

    def test_unwritable_report_exits_2(self, tmp_path, capsys):
        rc = main(["chaos", "--schedules", "drop", "--seeds", "1",
                   "--messages", "3",
                   "--report", str(tmp_path / "no" / "dir" / "x.json")])
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("messages", ["0", "-3"])
    def test_no_messages_exits_2(self, messages, capsys):
        # A client that sends nothing trips no invariant: a vacuous PASS.
        assert main(["chaos", "--seeds", "1", "--schedules", "drop",
                     "--messages", messages]) == 2
        assert "at least one message" in capsys.readouterr().err

    def test_repeated_schedule_exits_2(self, capsys):
        assert main(["chaos", "--seeds", "1", "--schedules", "drop,drop",
                     "--messages", "3"]) == 2
        assert "listed twice" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        # There is no --expect-fail: the exit code is the verdict.
        with pytest.raises(SystemExit) as exc_info:
            main(["chaos", "--expect-fail"])
        assert exc_info.value.code == EXIT_USAGE
        assert "--expect-fail" in capsys.readouterr().err


class TestExitCodes:
    def test_the_constants_are_the_documented_contract(self):
        assert (EXIT_OK, EXIT_DIFFERENT, EXIT_USAGE) == (0, 1, 2)

    def test_diff_exit_codes(self, tmp_path):
        def report(name, events):
            path = tmp_path / name
            body = new_report("test", seed=0)
            body["kpis"] = {"events": events}
            write_report(body, str(path))
            return str(path)

        a = report("a.json", 100)
        assert main(["diff", a, report("same.json", 100)]) == EXIT_OK
        assert main(["diff", a, report("moved.json", 200)]) == EXIT_DIFFERENT
        assert main(["diff", a, str(tmp_path / "missing.json")]) == \
            EXIT_USAGE

    def test_verify_is_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["verify"])
        assert exc_info.value.code == EXIT_USAGE

    def test_clean_campaign_exits_0_with_its_pass(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        rc = main(["chaos", "--schedules", "drop", "--seeds", "1",
                   "--messages", "3", "--seed", "3", "--out", str(out)])
        assert rc == EXIT_OK
        assert "differential verdict: PASS" in capsys.readouterr().out
        differential = json.loads(out.read_text())["differential"]
        assert differential["ok"] and len(differential["records"]) == 5

    def test_broken_rebinding_campaign_exits_1(self, tmp_path, capsys):
        bundle = tmp_path / "postmortem"
        rc = main(["chaos", "--schedules", "drop", "--seeds", "1",
                   "--messages", "20", "--seed", "42",
                   "--break-rebinding", "--postmortem", str(bundle)])
        assert rc == EXIT_DIFFERENT
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        assert "no-residual-dependency" in out
        assert "differential verdict: FAIL (5 of 5 record(s) failed)" in out
        assert (bundle / "manifest.json").is_file()

    def test_planted_mutation_exits_1_on_a_small_campaign(self, capsys):
        # Three messages at seed 3 are enough for the stale binding to
        # fail the campaign unit and all five pass records.
        rc = main(["chaos", "--schedules", "reorder", "--seeds", "1",
                   "--messages", "3", "--seed", "3", "--break-rebinding"])
        assert rc == EXIT_DIFFERENT
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        assert "differential verdict: FAIL (5 of 5 record(s) failed)" in out


class TestChaosHappyPath:
    def test_small_campaign_exits_0_and_writes_payload(self, tmp_path,
                                                       capsys):
        out_file = tmp_path / "chaos.json"
        rc = main(["chaos", "--schedules", "drop,reorder", "--seeds", "2",
                   "--messages", "10", "--seed", "3",
                   "--out", str(out_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict: PASS (0 violation(s))" in out
        payload = json.loads(out_file.read_text())
        rows = payload["results"]
        assert len(rows) == 2  # one row list per schedule
        for row in rows:
            assert len(row) == 2  # one run per seed
            for run in row:
                assert run["invariants_ok"]
