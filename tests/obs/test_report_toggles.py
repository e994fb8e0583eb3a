"""A chaos RunReport records the campaign grid its run actually covered."""

import json

from repro.__main__ import main


def test_chaos_report_records_the_campaign_it_ran(tmp_path):
    path = tmp_path / "chaos.json"
    rc = main(["chaos", "--schedules", "drop", "--seeds", "1", "--seed", "3",
               "--messages", "3", "--report", str(path)])
    assert rc == 0
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["kind"] == "chaos"
    assert report["config"] == {
        "scenario": "chaos",
        "configs": [{"schedule": "drop", "messages": 3,
                     "break_rebinding": False}],
        "replications": 1,
    }
