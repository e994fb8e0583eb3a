"""CLI tests for ``repro report``, ``repro diff`` and the trace
window flags -- including the ISSUE acceptance round-trips."""

import json

import pytest

from repro.__main__ import main
from repro.obs.report import load_report


@pytest.fixture(scope="module")
def baseline_report(tmp_path_factory):
    """One real instrumented migration, reported (module-scoped: the
    scenario takes a second or two and several tests read it)."""
    path = tmp_path_factory.mktemp("reports") / "base.json"
    rc = main(["report", "--program", "tex", "--seed", "0",
               "--out", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture(scope="module")
def parser_report(tmp_path_factory):
    """The same scenario migrating the parser instead of tex."""
    path = tmp_path_factory.mktemp("reports") / "parser.json"
    rc = main(["report", "--program", "parser", "--seed", "0",
               "--out", str(path)])
    assert rc == 0
    return str(path)


class TestReportCommand:
    def test_freeze_phases_sum_to_stats(self, baseline_report):
        report = load_report(baseline_report)
        checks = report["checks"]
        assert checks["freeze_decomposition_ok"]
        assert checks["freeze_phase_sum_us"] == pytest.approx(
            checks["freeze_us"], rel=0.01
        )
        freeze = report["phases"]["freeze"]
        names = [p["name"] for p in freeze["phases"]]
        assert "(self)" in names
        assert any(n == "residual-copy" for n in names)

    def test_report_structure(self, baseline_report):
        report = load_report(baseline_report)
        assert report["kind"] == "migration"
        assert report["config"]["program"] == "tex"
        assert report["kpis"]["success"] is True
        assert report["kpis"]["pages_copied"] > 0
        assert report["metrics"]["cluster"]["mig.migrations"] == 1
        assert report["span_profile"]["by_category"]["migration"]["count"] > 0
        assert report["critical_path"][0]["name"] == "migrate"
        assert "invariants" not in report  # no checker installed
        assert report["wall"]["sim_us_per_wall_s"] > 0

    def test_stdout_summary(self, capsys, baseline_report):
        # The fixture already ran main(); exercise the no-out path too.
        rc = main(["report", "--program", "tex", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "run report v1" in out
        assert "freeze accounting" in out and "[ok]" in out


class TestDiffCommand:
    def test_self_diff_is_within_tolerance(self, capsys, baseline_report):
        rc = main(["diff", baseline_report, baseline_report])
        out = capsys.readouterr().out
        assert rc == 0
        assert "WITHIN TOLERANCE" in out

    def test_program_delta_attributed_to_migration_subsystem(
            self, capsys, baseline_report, parser_report):
        # Tex vs parser: the parser pre-copies longer (1,753,782 ->
        # 2,776,902 us) and freezes a smaller residual (284,621 ->
        # 196,421 us), and the diff engine pins the top time delta on
        # the migration subsystem.
        rc = main(["diff", baseline_report, parser_report, "--json"])
        diff = json.loads(capsys.readouterr().out)
        assert rc == 1  # genuinely different runs
        precopy = diff["metrics"]["mig.precopy_us"]
        freeze = diff["metrics"]["mig.freeze_us"]
        assert precopy["b"] > precopy["a"]
        assert freeze["b"] < freeze["a"]
        migration = diff["subsystems"]["migration"]
        assert "mig.precopy_us" in migration["metrics"]
        assert "mig.freeze_us" in migration["metrics"]
        assert migration["time_delta_us"] == max(
            abs(sub["time_delta_us"]) for sub in diff["subsystems"].values())

    def test_table_output_ranks_subsystems(self, capsys, baseline_report,
                                           parser_report):
        rc = main(["diff", baseline_report, parser_report])
        out = capsys.readouterr().out
        assert rc == 1
        assert "subsystem attribution" in out
        assert "mig.precopy_us" in out

    def test_json_keeps_the_table_ranking(self, capsys, baseline_report,
                                          parser_report):
        # The JSON's subsystems come in the table's order, largest
        # |time delta| first, not alphabetically.
        main(["diff", baseline_report, parser_report])
        table = capsys.readouterr().out.split("subsystem attribution")[1]
        rows = table.split("\n\n")[0].splitlines()[3:]
        main(["diff", baseline_report, parser_report, "--json"])
        diff = json.loads(capsys.readouterr().out)
        ranked = [name for name, bucket in diff["subsystems"].items()
                  if bucket["time_delta_us"] or bucket["count_delta"]]
        assert [row.split()[0] for row in rows] == ranked
        assert ranked[0] == "migration"
        assert ranked != sorted(ranked)

    def test_bad_input_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["diff", missing, missing]) == 2
        assert "diff:" in capsys.readouterr().err

    def test_rejects_non_report_json(self, tmp_path, capsys,
                                     baseline_report):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"not": "a report"}')
        assert main(["diff", baseline_report, str(bogus)]) == 2

    def test_tolerance_flag_changes_the_verdict(self, tmp_path, capsys,
                                                baseline_report):
        # Nudge one counter by 0.5%: inside the default 1% gate,
        # outside a 0.1% gate.
        drifted = json.loads(open(baseline_report).read())
        drifted["metrics"]["cluster"]["ipc.copy_bytes"] = round(
            drifted["metrics"]["cluster"]["ipc.copy_bytes"] * 1.005
        )
        path = tmp_path / "drifted.json"
        path.write_text(json.dumps(drifted))
        assert main(["diff", baseline_report, str(path)]) == 0
        capsys.readouterr()
        assert main(["diff", baseline_report, str(path),
                     "--tolerance", "0.1"]) == 1
        capsys.readouterr()


class TestTraceWindowFlags:
    def test_window_restricts_exported_events(self, tmp_path, capsys):
        full = tmp_path / "full.json"
        assert main(["trace", "--program", "optimizer",
                     "--out", str(full)]) == 0
        capsys.readouterr()
        windowed = tmp_path / "win.json"
        # An empty window: everything filtered out.
        assert main(["trace", "--program", "optimizer",
                     "--out", str(windowed),
                     "--since-us", "1", "--until-us", "2"]) == 0
        capsys.readouterr()
        full_events = json.loads(full.read_text())["traceEvents"]
        win_events = json.loads(windowed.read_text())["traceEvents"]
        real = lambda evs: [e for e in evs if e["ph"] != "M"]  # noqa: E731
        assert len(real(full_events)) > 0
        assert real(win_events) == []

    def test_half_open_window_keeps_since_drops_until(self, tmp_path,
                                                      capsys):
        out = tmp_path / "w.json"
        assert main(["trace", "--program", "optimizer", "--out", str(out),
                     "--since-us", "0", "--until-us", "10000000"]) == 0
        capsys.readouterr()
        events = [e for e in json.loads(out.read_text())["traceEvents"]
                  if e["ph"] != "M"]
        assert events
        assert all(e["ts"] < 10_000_000 for e in events)
