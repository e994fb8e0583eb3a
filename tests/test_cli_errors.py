"""Error paths of the ``sweep``, ``chaos`` and ``verify`` subcommands:
bad input must exit 2 with a diagnostic on stderr (never a traceback),
and a failing campaign must exit 1."""

import json

from repro.__main__ import main


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


class TestVerifyErrors:
    def test_unknown_toggle_exits_2(self, capsys):
        assert main(["verify", "--toggle", "warp_drive=on"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("verify: ")
        assert "warp_drive" in err

    def test_toggle_without_value_exits_2(self, capsys):
        assert main(["verify", "--toggle", "load_cache"]) == 2
        err = capsys.readouterr().err
        assert "NAME=on|off" in err

    def test_malformed_toggle_value_exits_2(self, capsys):
        assert main(["verify", "--toggle", "load_cache=sideways"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("verify: ")
        assert "NAME=on|off" in err  # the diagnostic teaches the vocabulary

    def test_unknown_mutation_exits_2(self, capsys):
        assert main(["verify", "--mutate", "no-such-bug"]) == 2
        assert "break-rebinding" in capsys.readouterr().err

    def test_unwritable_report_exits_2(self, tmp_path, capsys):
        rc = main(["verify", "--matrix", "sample:2", "--messages", "3",
                   "--report", str(tmp_path / "no" / "dir" / "x.json")])
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err

    def test_broken_rebinding_campaign_exits_1(self, capsys):
        rc = main(["chaos", "--schedules", "drop", "--seeds", "1",
                   "--messages", "20", "--seed", "42",
                   "--break-rebinding"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        assert "no-residual-dependency" in out


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
