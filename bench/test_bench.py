"""Tests of the benchmark itself: ``python -m pytest bench -q``.

They run ``bench/run.py`` at smoke scale in subprocesses and check its
output contract and its trace split, and check ``bench/compare.py`` on a
recorded full-scale pass and on doctored copies of it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *map(str, args)],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def smoke(tmp_path, *args):
    """A smoke-scale run of every workload; its last line and record."""
    out = tmp_path / "record.json"
    proc = bench("--scale", "smoke", "--seconds", "3", "--out", out, *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return smoke(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return smoke(tmp_path_factory.mktemp("traced"), "--trace", "1")


@pytest.mark.parametrize("mode", ["untraced", "traced"])
def test_every_listed_metric_is_emitted_with_its_unit(mode, request):
    line, record = request.getfixturevalue(mode)
    listed = SPEC["end_to_end" if mode == "untraced" else "per_layer"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert sorted(record["workloads"]) == sorted(WORKLOADS)
    for workload, result in record["workloads"].items():
        for metric in listed:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
            emitted = line["metrics"][f"{workload}/{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))


def test_one_workload_ends_with_exactly_the_end_to_end_metrics():
    proc = bench("--workload", "chaos_campaign", "--seed", "7", "--scale",
                 "smoke", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(line["metrics"]) == sorted(
        m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_trace_covers_the_wall_and_keeps_the_trajectory(untraced, traced):
    for workload, result in traced[1]["workloads"].items():
        coverage = result["metrics"]["trace.coverage"]["values"][0]
        assert coverage >= 0.95, (workload, coverage)
        assert result["digest"] == untraced[1]["workloads"][workload]["digest"]


@pytest.fixture
def recorded():
    """A pass of untraced full-scale records from the ledger, one per
    seed: smoke runs last a fraction of a second, too short for spreads
    within the bounds."""
    for path in sorted((BENCH / "results").iterdir()):
        records = [json.loads(p.read_text()) for p in sorted(path.glob("*.json"))]
        if records and all(r["meta"]["trace"] == 0 and
                           r["meta"]["scale"] == "full" for r in records):
            return records
    pytest.fail("no pass of untraced full-scale records in bench/results")


def compare(tmp_path, a, b):
    """Run compare.py on two sides; its exit status, table rows and output."""
    sides = tmp_path / "a", tmp_path / "b"
    for side, records in zip(sides, (a, b)):
        side.mkdir()
        for i, record in enumerate(records):
            (side / f"{i:02d}.json").write_text(json.dumps(record))
    proc = bench(*sides, script=BENCH / "compare.py")
    rows = [r for r in proc.stdout.splitlines() if r.split(" ")[0] in WORKLOADS]
    return proc.returncode, rows, proc.stdout + proc.stderr


def doctored(records, change):
    """A deep copy of ``records`` with ``change`` applied to each."""
    copies = json.loads(json.dumps(records))
    for record in copies:
        change(record)
    return copies


def test_compare_with_itself_is_all_same(recorded, tmp_path):
    status, rows, out = compare(tmp_path, recorded, recorded)
    assert status == 0, out
    assert len(rows) == len(WORKLOADS) * len(SPEC["end_to_end"]), out
    assert all(r.endswith(" same") for r in rows), rows
    assert "CHANGED" not in out


def test_compare_flags_a_slower_wall(recorded, tmp_path):
    def slower(record):
        for result in record["workloads"].values():
            wall = result["metrics"]["wall_s"]
            wall["values"] = [v * 1.5 for v in wall["values"]]

    status, rows, out = compare(tmp_path, recorded, doctored(recorded, slower))
    assert status == 1, out
    assert len(rows) == len(WORKLOADS) * len(SPEC["end_to_end"]), out
    for row in rows:
        assert row.endswith(" worse" if " wall_s " in row else " same"), row


def test_compare_flags_a_changed_trajectory(recorded, tmp_path):
    def faster_freeze(record):
        metric = record["workloads"]["migration_storm"]["metrics"]["freeze_ms_p95"]
        metric["values"] = [metric["values"][0] * 0.9]
        record["workloads"]["migration_storm"]["digest"] = "0" * 64

    status, rows, out = compare(tmp_path, recorded,
                                doctored(recorded, faster_freeze))
    assert status == 1, out
    assert all(r.endswith(" same") for r in rows), rows
    assert f"{len(recorded)} changed" in out
    assert "migration_storm        seed" in out and "CHANGED" in out


@pytest.mark.parametrize("field, value", [("failed", 1), ("src_clean", False)])
def test_compare_refuses_a_failed_or_dirty_record(recorded, tmp_path, field,
                                                 value):
    def spoil(record):
        if field == "failed":
            record["workloads"]["chaos_campaign"]["failed"] = value
        else:
            record["meta"][field] = value

    status, rows, out = compare(tmp_path, recorded, doctored(recorded, spoil))
    assert status != 0 and not rows, out


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "migration_storm", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path,
                 script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
