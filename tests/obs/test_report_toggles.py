"""RunReports and postmortem bundles record the copy-plane modes the
run's clusters were actually built with, not whatever some process-wide
state held when the artifact was written."""

import json
from dataclasses import replace

from repro.__main__ import main
from repro.config import DEFAULT_MODEL
from repro.obs.flight_recorder import FlightRecorder, load_postmortem

from tests.helpers import make_cluster


def _toggles(path):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    return report["config"], report["toggles"]["copy_plane"]


def test_verify_report_records_the_modes_its_cells_ran(tmp_path):
    # Verify cells only toggle the host-state caches, so every cluster
    # they build runs the default copy plane.
    path = tmp_path / "verify.json"
    rc = main(["verify", "--seed", "3", "--messages", "3",
               "--report", str(path)])
    assert rc == 0
    config, copy_plane = _toggles(path)
    assert config == {"cells": 17, "break_rebinding": False}
    assert copy_plane == {"adaptive_precopy": False}


def test_bundle_manifest_records_the_cluster_model(tmp_path):
    model = replace(DEFAULT_MODEL, precopy_adaptive=True)
    cluster = make_cluster(2, model=model, invariants=False)
    recorder = FlightRecorder(str(tmp_path / "b"), cluster=cluster)
    manifest = load_postmortem(recorder.dump(reason="manual"))["manifest"]
    assert manifest["toggles"]["copy_plane"] == {"adaptive_precopy": True}
