"""Unit tests for the experiment reporting helpers."""

import pytest

from repro.metrics import ExperimentReport, register, render_all
from repro.metrics.report import REGISTRY, ReportRow


@pytest.fixture(autouse=True)
def clean_registry():
    saved = list(REGISTRY)
    REGISTRY.clear()
    yield
    REGISTRY[:] = saved


class TestReportRow:
    def test_ratio(self):
        assert ReportRow("m", "ms", 10, 12).ratio == pytest.approx(1.2)
        assert ReportRow("m", "ms", None, 12).ratio is None
        assert ReportRow("m", "ms", 0, 12).ratio is None
        assert ReportRow("m", "ms", 10, None).ratio is None


class TestExperimentReport:
    def test_render_contains_rows_and_ratio(self):
        report = ExperimentReport("EX", "example")
        report.add("latency", "ms", 23.0, 22.6)
        text = report.render()
        assert "EX: example" in text
        assert "latency" in text
        assert "0.98x" in text

    def test_missing_values_render_as_dash(self):
        report = ExperimentReport("EX", "example")
        report.add("count", "n", None, 5)
        text = report.render()
        assert "-" in text

    def test_notes_rendered(self):
        report = ExperimentReport("EX", "example").note("a footnote")
        assert "a footnote" in report.render()

    def test_register_replaces_same_id(self):
        a = ExperimentReport("E1", "first")
        b = ExperimentReport("E1", "second")
        register(a)
        register(b)
        assert len(REGISTRY) == 1
        assert REGISTRY[0].title == "second"

    def test_render_all_joins_reports(self):
        register(ExperimentReport("E1", "one").add("m", "u", 1, 1))
        register(ExperimentReport("E2", "two").add("m", "u", 2, 2))
        text = render_all()
        assert "E1: one" in text and "E2: two" in text

    def test_number_formatting(self):
        report = ExperimentReport("EX", "fmt")
        report.add("big", "us", 123456.0, 123456.0)
        report.add("small", "x", 0.123, 0.123)
        report.add("int", "n", 1234, 1234)
        text = report.render()
        assert "123,456" in text
        assert "0.123" in text
        assert "1,234" in text

    def test_empty_report_renders(self):
        assert "empty" in ExperimentReport("E0", "empty").render()
