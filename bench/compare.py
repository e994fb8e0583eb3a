"""Compare two benchmark records written by ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

A and B are each a record file or a directory of them; a directory's
records are pooled, so ten alternating runs per side compare as one.
Both sides must be measured at the same seeds and scale, and a record
with a failed operation or with ``src`` changed from its commit is
refused.  For every (workload, end-to-end metric) pair it prints each
side's median and quartiles over its runs (each run's value is the
median the run reported) and a verdict, with the metric's bound from
BENCHMARK.json:

- ``worse``: B's median is worse than A's by more than the bound;
- ``improved``: B's median is better by more than the bound and by more
  than A's interquartile range;
- ``unresolved``: a side's interquartile range, as a share of its median,
  is wider than the bound, and the two sides' runs overlap;
- ``same``: otherwise.

Trajectory digests and modelled values must match exactly: a change that
alters the modelled trajectory is ``CHANGED``.  Per-layer host times are
listed as deltas for attribution and are not gated.  The exit status is
1 when any pair is ``worse`` or ``unresolved`` or anything is
``CHANGED``.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_side(path):
    """Pool the records at ``path`` (a file or a directory of files)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"no records in {path}")
    side = {"seeds": [], "scales": set(), "values": {}, "digests": {},
            "modelled": {}}
    for file in files:
        run = json.loads(file.read_text())
        meta = run["meta"]
        if meta.get("src_clean") is False:
            raise SystemExit(f"{file}: measured with src changed from "
                             f"{meta['sha']}")
        seed = meta["seed"]
        side["seeds"].append(seed)
        side["scales"].add(meta["scale"])
        for workload, record in run["workloads"].items():
            if record["failed"]:
                raise SystemExit(f"{file}: {record['failed']} {workload} "
                                 f"operations failed")
            key = (workload, seed)
            if side["digests"].setdefault(key, record["digest"]) != \
                    record["digest"]:
                raise SystemExit(f"{path}: two runs of {workload} at seed "
                                 f"{seed} took different trajectories")
            for name, metric in record["metrics"].items():
                values = side["values"].setdefault((workload, name), [])
                if metric["kind"] == "end_to_end":
                    values.append(statistics.median(metric["values"]))
                else:
                    values.extend(metric["values"])
                if metric["kind"] == "modelled":
                    side["modelled"][workload, seed, name] = metric["values"][0]
    side["seeds"].sort()
    return side


def quartiles(values):
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(a, b, bound, better):
    """The verdict for one (workload, metric) pair, and B's change."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = 1 if better == "lower" else -1
    change = (bm - am) / am
    worse_by = sign * change
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    separated = (min(b) > max(a)) or (max(b) < min(a))
    if spread > bound and not separated:
        return "unresolved", change
    if worse_by > bound:
        return "worse", change
    if -worse_by > bound and abs(bm - am) > a3 - a1:
        return "improved", change
    return "same", change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="parent record(s)")
    parser.add_argument("b", type=Path, help="change record(s)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load_side(args.a), load_side(args.b)
    if a["seeds"] != b["seeds"] or a["scales"] != b["scales"]:
        raise SystemExit(f"sides differ: seeds {a['seeds']} vs {b['seeds']},"
                         f" scale {sorted(a['scales'])} vs "
                         f"{sorted(b['scales'])}")

    workloads = sorted({w for w, _ in a["values"]} & {w for w, _ in b["values"]})
    failing = 0
    print(f"{'workload':22s} {'metric':12s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s} {'bound':>6s}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a["values"] or key not in b["values"]:
                continue
            va, vb = a["values"][key], b["values"][key]
            word, change = verdict(va, vb, metric["bound"], metric["better"])
            failing += word in ("worse", "unresolved")
            cells = []
            for values in (va, vb):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            print(f"{workload:22s} {metric['name']:12s} {cells[0]:>30s} "
                  f"{cells[1]:>30s} {change:+8.1%} {metric['bound']:6.0%}  "
                  f"{word}")

    print("\ntrajectories:")
    for key in sorted(set(a["digests"]) & set(b["digests"])):
        same = a["digests"][key] == b["digests"][key]
        failing += not same
        print(f"  {key[0]:22s} seed {key[1]}: "
              f"{'same' if same else 'CHANGED'} {b['digests'][key][:16]}")
    changed = [(key, a["modelled"][key], b["modelled"][key])
               for key in sorted(set(a["modelled"]) & set(b["modelled"]))
               if a["modelled"][key] != b["modelled"][key]]
    failing += len(changed)
    print(f"modelled values: {len(changed) or 'none'} changed")
    for (workload, seed, name), old, new in changed:
        print(f"  {workload:22s} seed {seed} {name}: {old} -> {new}  CHANGED")

    deltas = [(key, statistics.median(a["values"][key]),
               statistics.median(b["values"][key]))
              for key in sorted(set(a["values"]) & set(b["values"]))
              if key[1].endswith(".self_s")]
    if deltas:
        print("\nper-layer self time, medians (attribution only):")
        for (workload, name), old, new in deltas:
            print(f"  {workload:22s} {name:24s} {old:9.4f} s -> "
                  f"{new:9.4f} s  {new - old:+.4f} s")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
