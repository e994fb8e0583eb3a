"""Flight recorder: postmortem bundles on invariant violations."""

import json
import os

import pytest

from repro.errors import InvariantViolation, SimulationError
from repro.faults.invariants import InvariantChecker
from repro.obs import FlightRecorder, load_postmortem
from repro.obs.flight_recorder import BUNDLE_FILES
from repro.sim import Simulator


def violate(checker):
    """Trip at-most-once by reporting the same delivery twice."""
    checker.note_request_delivered("p1", 1, "p2")
    checker.note_request_delivered("p1", 1, "p2")


class TestFlightRecorder:
    def test_checker_has_no_recorder_by_default(self):
        checker = InvariantChecker(strict=False)
        assert checker.flight_recorder is None
        violate(checker)  # no recorder attached: records, no dump
        assert len(checker.violations) == 1

    def test_violation_dumps_bundle(self, tmp_path):
        sim = Simulator(seed=0)
        sim.trace.enable("*")
        sid = sim.trace.begin_span("migration", "freeze", host="ws1")
        sim.schedule(100, lambda: sim.trace.end_span(sid))
        sim.run()
        sim.metrics.enable()
        sim.metrics.counter("ipc.sends", "ws0").inc(3)

        out = tmp_path / "bundle"
        checker = InvariantChecker(strict=False)
        recorder = FlightRecorder(
            str(out), sim=sim, context={"seed": 42, "schedule": "drop"},
        ).attach(checker)
        violate(checker)

        assert recorder.dumped == str(out)
        for name in BUNDLE_FILES:
            assert (out / name).is_file()
        bundle = load_postmortem(str(out))
        assert bundle["manifest"]["reason"] == "invariant-violation"
        assert bundle["manifest"]["context"]["seed"] == 42
        assert not bundle["invariants"]["ok"]
        (v,) = bundle["invariants"]["violations"]
        assert v["invariant"] == "at-most-once"
        assert v["detail"]["count"] == 2
        # The trace tail is valid Chrome trace_event JSON.
        names = [e["name"] for e in bundle["trace"]["traceEvents"]]
        assert "freeze" in names
        assert bundle["metrics"]["cluster"]["ipc.sends"] == 3

    def test_strict_checker_dumps_before_raising(self, tmp_path):
        out = tmp_path / "bundle"
        checker = InvariantChecker(strict=True)
        FlightRecorder(str(out)).attach(checker)
        with pytest.raises(InvariantViolation):
            violate(checker)
        assert load_postmortem(str(out))["invariants"]["summary"][
            "at-most-once"] == 1

    def test_only_first_violation_dumps(self, tmp_path):
        out = tmp_path / "bundle"
        checker = InvariantChecker(strict=False)
        recorder = FlightRecorder(str(out)).attach(checker)
        violate(checker)
        first = json.loads((out / "invariants.json").read_text())
        checker.note_request_delivered("p9", 5, "p2")
        checker.note_request_delivered("p9", 5, "p2")
        assert len(checker.violations) == 2
        # The bundle still reflects the first dump.
        again = json.loads((out / "invariants.json").read_text())
        assert again == first
        assert recorder.dumped == str(out)

    def test_manual_dump_without_checker(self, tmp_path):
        out = tmp_path / "snap"
        recorder = FlightRecorder(str(out))
        recorder.dump(reason="manual-snapshot")
        bundle = load_postmortem(str(out))
        assert bundle["manifest"]["reason"] == "manual-snapshot"
        assert bundle["invariants"]["ok"]
        assert bundle["trace"]["traceEvents"] == []

    def test_load_rejects_non_bundle_dir(self, tmp_path):
        with pytest.raises(SimulationError):
            load_postmortem(str(tmp_path))

    def test_load_rejects_future_bundle_version(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path))
        recorder.dump(reason="x")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["bundle_version"] = 99
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SimulationError):
            load_postmortem(str(tmp_path))

    def test_trace_tail_respects_cap(self, tmp_path):
        sim = Simulator(seed=0)
        sim.trace.enable("*")
        for i in range(50):
            sid = sim.trace.begin_span("m", f"s{i}")
            sim.trace.end_span(sid)
        recorder = FlightRecorder(str(tmp_path / "b"), sim=sim,
                                  max_trace_events=10)
        recorder.dump(reason="cap")
        events = load_postmortem(str(tmp_path / "b"))["trace"]["traceEvents"]
        spans = [e for e in events if e["ph"] != "M"]
        assert len(spans) == 10
        assert spans[-1]["name"] == "s49"  # the newest survive
