"""``tools/bench_ledger.py``: paired benchmark records -> ledger rows.

Two synthetic record directories stand in for what ``make bench-pair``
leaves; the rows must carry the fields of the checked-in
``BENCH_job_storm_multicast.json`` row, with medians and quartiles over
runs and the pairs matched by record name.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_ledger", ROOT / "tools" / "bench_ledger.py")
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

#: This repository's root commit: a sha git resolves in any clone.
ROOT_SHA = ledger._git("rev-list", "--max-parents=0", "HEAD")


def _record(sha, walls, setups, rss, digest="d1", failed=0, clean=True):
    """One ``bench/run.py --out`` record: per workload, one run's repeat
    values."""
    def workload(scale):
        return {
            "digest": digest, "repeats": len(walls), "attempted": 10,
            "failed": failed,
            "metrics": {
                "wall_s": {"kind": "end_to_end", "unit": "s",
                           "values": [w * scale for w in walls]},
                "setup_s": {"kind": "end_to_end", "unit": "s",
                            "values": setups},
                "peak_rss_mb": {"kind": "end_to_end", "unit": "MB",
                                "values": rss},
                "sim.events": {"kind": "modelled", "unit": "count",
                               "values": [100]},
            },
        }

    return {
        "meta": {"nproc": 2, "python": "3.11.7", "seed": 42,
                 "scale": "full", "sha": sha, "src_clean": clean},
        "workloads": {"storm": workload(1.0), "probe": workload(2.0)},
    }


def _write(directory, records):
    directory.mkdir()
    for name, record in records.items():
        (directory / f"{name}.json").write_text(json.dumps(record))
    return directory


@pytest.fixture
def sides(tmp_path):
    parent = _write(tmp_path / "parent", {
        "1": _record("p" * 40, [4.0, 4.2, 4.4], [0.2, 0.1], [30.0, 31.0]),
        "2": _record("p" * 40, [4.1], [0.3], [30.0]),
        "3": _record("p" * 40, [3.0, 3.1, 3.2], [0.2], [29.0]),
    })
    change = _write(tmp_path / "change", {
        "1": _record(ROOT_SHA, [3.5], [0.2], [30.0]),
        "2": _record(ROOT_SHA, [3.6, 3.7, 3.8], [0.1, 0.3], [31.0]),
        "3": _record(ROOT_SHA, [3.4], [0.2], [30.5]),
    })
    return parent, change


def test_rows_summarise_each_side_over_runs(sides):
    rows = ledger.rows(*sides)
    assert sorted(rows) == ["probe", "storm"]
    row = rows["storm"]
    # Run values: parent 4.2, 4.1, 3.1; change 3.5, 3.7, 3.4.
    assert row["parent"]["wall_s"] == {"median": 4.1, "q1": 3.6, "q3": 4.15,
                                       "iqr": 0.55}
    assert row["change"]["wall_s"]["median"] == 3.5
    assert row["parent"]["setup_s"]["median"] == 0.2
    assert row["change"]["peak_rss_mb"] == {"median": 30.5, "q1": 30.25,
                                            "q3": 30.75, "iqr": 0.5}
    assert row["wall_s_change"] == round(3.5 / 4.1 - 1, 4)
    # Pair 3: 3.4 is slower than the parent's 3.1.
    assert row["wall_s_pairs_won"] == "2/3"
    assert rows["probe"]["change"]["wall_s"]["median"] == 7.0
    change = row["change"]
    assert (change["sha"], change["n"], change["nproc"], change["python"],
            change["digest"], change["failed"]) == (
        ROOT_SHA, 3, 2, "3.11.7", "d1", 0)
    assert change["src_tree"] == ledger._git("rev-parse", f"{ROOT_SHA}:src")
    assert row["title"] == ledger._git("log", "-1", "--format=%s", ROOT_SHA)
    # An unknown sha has no tree to name.
    assert row["parent"]["src_tree"] is None


def test_rows_have_the_fields_of_the_checked_in_ledger(sides):
    checked_in = json.loads(
        (ROOT / "BENCH_job_storm_multicast.json").read_text())["rows"][0]
    row = ledger.rows(*sides)["storm"]

    def shape(value):
        if isinstance(value, dict):
            return {key: shape(item) for key, item in value.items()}
        return None

    assert shape(row) == shape(checked_in)


def test_append_creates_then_extends_a_ledger(sides, tmp_path):
    written = ledger.append(*sides, root=tmp_path)
    assert sorted(path.name for path in written) == [
        "BENCH_probe.json", "BENCH_storm.json"]
    ledger.append(*sides, root=tmp_path)
    storm = json.loads((tmp_path / "BENCH_storm.json").read_text())
    assert storm["workload"] == "storm"
    assert storm["method"] == ledger.METHOD
    assert len(storm["rows"]) == 2


@pytest.mark.parametrize("spoil,message", [
    (dict(clean=False), "src changed"),
    (dict(digest="d2"), "digest"),
])
def test_a_side_that_does_not_hold_together_is_refused(
        tmp_path, spoil, message):
    parent = _write(tmp_path / "parent", {
        "1": _record("p" * 40, [4.0], [0.2], [30.0]),
        "2": _record("p" * 40, [4.0], [0.2], [30.0], **spoil),
    })
    change = _write(tmp_path / "change", {
        "1": _record(ROOT_SHA, [3.5], [0.2], [30.0])})
    with pytest.raises(SystemExit, match=message):
        ledger.rows(parent, change)
