"""RunReport artifacts and the diff/attribution engine."""

import json

import pytest

from repro.errors import SimulationError
from repro.obs import diff_reports, new_report, render_diff, subsystem_of
from repro.obs.report import (
    RUN_REPORT_VERSION,
    load_report,
    render_report,
    write_report,
)


def report_with(cluster_metrics, kpis=None, toggles_on=False):
    report = new_report("test", seed=0)
    if toggles_on:
        report["toggles"]["copy_plane"] = {
            k: True for k in report["toggles"]["copy_plane"]
        }
    report["metrics"] = {"per_host": {}, "cluster": cluster_metrics,
                         "sim_time_us": 1000}
    report["kpis"] = dict(kpis or {})
    return report


class TestEnvelope:
    def test_new_report_carries_version_and_toggles(self):
        report = new_report("migration", seed=7, config={"program": "tex"})
        assert report["run_report_version"] == RUN_REPORT_VERSION
        assert report["seed"] == 7
        assert report["config"] == {"program": "tex"}
        assert set(report["toggles"]) == {"copy_plane"}

    def test_write_load_round_trip(self, tmp_path):
        report = report_with({"ipc.sends": 5})
        path = tmp_path / "r.json"
        write_report(report, str(path))
        assert load_report(str(path)) == json.loads(json.dumps(report))

    def test_load_rejects_non_report_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(SimulationError):
            load_report(str(path))

    def test_load_rejects_future_version(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(
            {"run_report_version": RUN_REPORT_VERSION + 1}
        ))
        with pytest.raises(SimulationError):
            load_report(str(path))

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(SimulationError):
            load_report(str(tmp_path / "absent.json"))

    def test_render_report_mentions_kpis(self):
        report = report_with({}, kpis={"freeze_us": 12345})
        text = render_report(report)
        assert "freeze_us" in text
        assert "12345" in text


class TestSubsystems:
    def test_prefix_buckets(self):
        assert subsystem_of("ipc.sends") == "ipc"
        assert subsystem_of("mig.freeze_us") == "migration"
        assert subsystem_of("precopy.projected_residual") == "migration"
        assert subsystem_of("sched.cpu_us.remote") == "scheduler"
        assert subsystem_of("something.odd") == "other"


class TestDiff:
    def test_identical_reports_are_within_tolerance(self):
        a = report_with({"ipc.sends": 100, "mig.freeze_us": 5000})
        diff = diff_reports(a, a)
        assert diff["ok"]
        assert diff["total_time_delta_us"] == 0
        assert all(e["within"] for e in diff["metrics"].values())

    def test_small_drift_within_relative_tolerance(self):
        a = report_with({"ipc.sends": 1000})
        b = report_with({"ipc.sends": 1005})
        assert diff_reports(a, b, rel_tol=0.01)["ok"]
        assert not diff_reports(a, b, rel_tol=0.001)["ok"]

    def test_absolute_tolerance_floor(self):
        a = report_with({"net.tx_packets": 2})
        b = report_with({"net.tx_packets": 4})  # +100% but tiny
        assert not diff_reports(a, b, rel_tol=0.01)["ok"]
        assert diff_reports(a, b, rel_tol=0.01, abs_tol=5)["ok"]

    def test_time_delta_attributed_to_subsystem(self):
        a = report_with({"mig.freeze_us": 10_000, "ipc.sends": 50})
        b = report_with({"mig.freeze_us": 16_000, "ipc.sends": 50})
        diff = diff_reports(a, b)
        assert diff["subsystems"]["migration"]["time_delta_us"] == 6_000
        assert diff["total_time_delta_us"] == 6_000
        # Ranked first: migration moved time, nothing else moved at all.
        assert next(iter(diff["subsystems"])) == "migration"

    def test_histogram_total_counts_as_time_but_count_does_not(self):
        hist_a = {"count": 10, "total": 1_000, "mean": 100.0,
                  "min": 1, "max": 300, "buckets": {}}
        hist_b = {"count": 12, "total": 2_000, "mean": 166.7,
                  "min": 1, "max": 300, "buckets": {}}
        a = report_with({"ipc.send_latency_us": hist_a})
        b = report_with({"ipc.send_latency_us": hist_b})
        diff = diff_reports(a, b)
        assert diff["metrics"]["ipc.send_latency_us.total"]["delta"] == 1_000
        assert diff["metrics"]["ipc.send_latency_us.count"]["delta"] == 2
        assert diff["subsystems"]["ipc"]["time_delta_us"] == 1_000

    def test_gauge_aggregate_flattened(self):
        a = report_with({"sched.runq": {"sum": 3, "max": 2}})
        b = report_with({"sched.runq": {"sum": 5, "max": 4}})
        diff = diff_reports(a, b)
        assert diff["metrics"]["sched.runq.sum"]["delta"] == 2
        assert diff["metrics"]["sched.runq.max"]["delta"] == 2

    def test_metric_on_one_side_compared_against_zero(self):
        a = report_with({})
        b = report_with({"ipc.naks": 59})
        diff = diff_reports(a, b)
        entry = diff["metrics"]["ipc.naks"]
        assert entry["a"] == 0 and entry["b"] == 59
        assert not entry["within"]
        assert "ipc.naks" in diff["subsystems"]["ipc"]["metrics"]

    def test_kpi_non_numeric_compared_by_equality(self):
        a = report_with({}, kpis={"success": True, "stop": "rounds"})
        b = report_with({}, kpis={"success": True, "stop": "adaptive"})
        diff = diff_reports(a, b)
        assert diff["kpis"]["success"]["within"]
        assert not diff["kpis"]["stop"]["within"]
        assert not diff["ok"]

    def test_toggle_mismatch_reported_but_not_gating(self):
        a = report_with({"ipc.sends": 10})
        b = report_with({"ipc.sends": 10}, toggles_on=True)
        diff = diff_reports(a, b)
        assert not diff["toggles"]["same"]
        assert diff["ok"]  # metrics agree; toggles are informational

    def test_wall_section_is_never_compared(self):
        a = report_with({"ipc.sends": 10})
        b = report_with({"ipc.sends": 10})
        a["wall"] = {"wall_s": 0.5, "sim_us_per_wall_s": 1_000_000}
        b["wall"] = {"wall_s": 9.9, "sim_us_per_wall_s": 7}
        diff = diff_reports(a, b)
        assert diff["ok"]
        assert not any("wall" in k for k in diff["metrics"])

    def test_render_flags_out_of_tolerance_rows(self):
        a = report_with({"mig.freeze_us": 10_000})
        b = report_with({"mig.freeze_us": 20_000})
        text = render_diff(diff_reports(a, b))
        assert "BEYOND TOLERANCE" in text
        assert "mig.freeze_us" in text
        assert "migration" in text
        ok_text = render_diff(diff_reports(a, a))
        assert "WITHIN TOLERANCE" in ok_text

    def test_diff_is_json_serializable(self):
        a = report_with({"mig.freeze_us": 10_000}, kpis={"success": True})
        diff = diff_reports(a, a)
        assert json.loads(json.dumps(diff)) == diff
