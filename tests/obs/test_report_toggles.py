"""RunReports and postmortem bundles record the copy-plane modes the
run's clusters were actually built with, not whatever some process-wide
state held when the artifact was written."""

import json

from repro.__main__ import main
from repro.obs.flight_recorder import FlightRecorder, load_postmortem

from tests.helpers import make_cluster

ALL_ON = {"adaptive_precopy": True, "burst_pacing": True}


def _toggles(path):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    return report["config"], report["toggles"]["copy_plane"]


def test_chaos_copy_plane_report_records_both_modes_on(tmp_path):
    path = tmp_path / "cp.json"
    rc = main(["chaos", "--seeds", "1", "--seed", "7", "--messages", "10",
               "--schedules", "drop", "--copy-plane",
               "--report", str(path)])
    assert rc == 0
    config, copy_plane = _toggles(path)
    assert all(c["copy_plane"] for c in config["configs"])
    assert copy_plane == ALL_ON


def test_verify_report_records_the_modes_its_cells_ran(tmp_path):
    path = tmp_path / "verify.json"
    rc = main(["verify", "--matrix", "sample:2", "--seed", "3",
               "--messages", "3", "--toggle", "burst_pacing=on",
               "--report", str(path)])
    assert rc == 0
    _, copy_plane = _toggles(path)
    assert copy_plane == {"adaptive_precopy": False, "burst_pacing": True}


def test_bundle_manifest_records_the_cluster_model(tmp_path):
    cluster = make_cluster(2, toggles=ALL_ON, invariants=False)
    recorder = FlightRecorder(str(tmp_path / "b"), cluster=cluster)
    manifest = load_postmortem(recorder.dump(reason="manual"))["manifest"]
    assert manifest["toggles"]["copy_plane"] == ALL_ON
