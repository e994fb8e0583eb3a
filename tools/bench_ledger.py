"""Append one bench-ledger row per workload from paired benchmark records.

    python3 tools/bench_ledger.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR each hold the ``bench/run.py --out`` records
of one side of alternating pairs, as ``make bench-pair`` writes them
(``bench-pair/parent/<i>.json`` and ``bench-pair/change/<i>.json``).
For every workload both sides measured, a row is appended to
``BENCH_<workload>.json`` at the repository root (the file is created
if missing).  A row is titled with the subject of the change side's
commit and holds, per side: sha, ``src`` tree hash, n, core
count, Python version, median/q1/q3/IQR of ``wall_s``, ``setup_s`` and
``peak_rss_mb`` over runs (a run's value is the median it reported,
inclusive quartiles), digest and failed operations; then the relative
change of the median ``wall_s`` and the pairs the change side won
(records with the same file name are a pair).
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
METHOD = (
    "Alternating parent/change pairs of `python3 bench/run.py` (seed 42, "
    "full scale, BENCHMARK.json run_seconds), the loop `make bench-pair` "
    "runs; rows appended by `make bench-ledger` (tools/bench_ledger.py). "
    "A run's value is the median of its repeats (setup_s: of its "
    "set-ups); n, median and IQR (inclusive quartiles) are over runs. "
    "`src_tree` is `git rev-parse <sha>:src`, which identifies the "
    "measured source independently of the commit that carries it.")


def _one(values, what, where):
    """The single value every record of a side agrees on."""
    distinct = set(values)
    if len(distinct) != 1:
        raise SystemExit(f"{where}: records disagree on {what}: "
                         f"{sorted(map(str, distinct))}")
    return values[0]


def _stats(values):
    if len(values) < 2:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4)}


def _git(*args):
    """The output of a git command in this repository, None on failure."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_side(path):
    """``{record name: record}`` for the ``*.json`` records at ``path``."""
    records = {file.stem: json.loads(file.read_text())
               for file in sorted(Path(path).glob("*.json"))}
    if not records:
        raise SystemExit(f"no records in {path}")
    return records


def run_values(records, workload, metric):
    """``{record name: the run's value}`` of one end-to-end metric."""
    return {name: statistics.median(
                run["workloads"][workload]["metrics"][metric]["values"])
            for name, run in records.items()}


def side_summary(records, workload, where):
    metas = [run["meta"] for run in records.values()]
    for meta in metas:
        if meta.get("src_clean") is False:
            raise SystemExit(f"{where}: measured with src changed from "
                             f"{meta['sha']}")
    runs = [run["workloads"][workload] for run in records.values()]
    sha = _one([meta["sha"] for meta in metas], "sha", where)
    summary = {
        "sha": sha,
        "src_tree": _git("rev-parse", f"{sha}:src"),
        "n": len(records),
        "nproc": _one([meta["nproc"] for meta in metas], "nproc", where),
        "python": _one([meta["python"] for meta in metas], "python", where),
    }
    for metric in METRICS:
        summary[metric] = _stats(
            list(run_values(records, workload, metric).values()))
    summary["digest"] = _one([run["digest"] for run in runs],
                             f"the {workload} digest", where)
    summary["failed"] = sum(run["failed"] for run in runs)
    return summary


def rows(parent_dir, change_dir):
    """``{workload: row}`` for every workload both sides measured."""
    parent, change = load_side(parent_dir), load_side(change_dir)
    workloads = [w for w in next(iter(parent.values()))["workloads"]
                 if all(w in run["workloads"]
                        for run in (*parent.values(), *change.values()))]
    sha = _one([run["meta"]["sha"] for run in change.values()], "sha",
               change_dir)
    title = _git("log", "-1", "--format=%s", sha)
    out = {}
    for workload in workloads:
        before = side_summary(parent, workload, parent_dir)
        after = side_summary(change, workload, change_dir)
        walls = (run_values(parent, workload, "wall_s"),
                 run_values(change, workload, "wall_s"))
        pairs = sorted(set(walls[0]) & set(walls[1]))
        won = sum(walls[1][name] < walls[0][name] for name in pairs)
        out[workload] = {
            "title": title,
            "parent": before,
            "change": after,
            "wall_s_change": round(after["wall_s"]["median"]
                                   / before["wall_s"]["median"] - 1, 4),
            "wall_s_pairs_won": f"{won}/{len(pairs)}",
        }
    return out


def append(parent_dir, change_dir, root=ROOT):
    """Append the rows to ``root/BENCH_<workload>.json``; returns the
    files written."""
    written = []
    for workload, row in rows(parent_dir, change_dir).items():
        path = Path(root) / f"BENCH_{workload}.json"
        if path.exists():
            ledger = json.loads(path.read_text())
        else:
            ledger = {"workload": workload, "method": METHOD, "rows": []}
        ledger["rows"].append(row)
        path.write_text(json.dumps(ledger, indent=1) + "\n")
        written.append(path)
    return written


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for path in append(*argv):
        row = json.loads(path.read_text())["rows"][-1]
        print(f"{path.name}: wall_s {row['parent']['wall_s']['median']} -> "
              f"{row['change']['wall_s']['median']} s "
              f"({row['wall_s_change']:+.1%}, change faster in "
              f"{row['wall_s_pairs_won']} pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
