"""A verify RunReport records the cell list its run actually covered."""

import json

from repro.__main__ import main


def test_verify_report_records_the_modes_its_cells_ran(tmp_path):
    path = tmp_path / "verify.json"
    rc = main(["verify", "--seed", "3", "--messages", "3",
               "--report", str(path)])
    assert rc == 0
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["config"] == {"cells": 12, "break_rebinding": False}
