"""The simulator's benchmark: four workloads, measured from outside.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--scale full|smoke] [--out FILE]

Each repeat runs in a fresh ``bench/child.py`` interpreter, one at a
time, with the shipped default toggles.  Untraced, a workload repeats
for about ``--seconds`` (at least three times), and set-up-only children
run between the repeats.  Each end-to-end metric is a median: of the
repeats for ``wall_s`` and ``peak_rss_mb``, of every set-up for
``setup_s``.  Times are host seconds at the reference speed that
``bench/child.py`` calibrates against.  With ``--trace 1`` one
untraced and one cProfile'd repeat give the per-layer metrics.  Every
repeat must take the same modelled trajectory and no operation may fail;
a failed check exits with status 1.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--out`` also writes every repeat's values, with the
machine and commit, for ``bench/compare.py``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_REPEATS = 3
#: Set-up-only children run before each repeat.  Set-up is a fraction of
#: a second, so one burst of load on the host moves a single reading by
#: half; the median of many does not move.
SETUPS_PER_REPEAT = 2
MIN_COVERAGE = 0.95
CHILD_TIMEOUT_S = 120


class CheckFailed(Exception):
    """A repeat's output was wrong, or a repeat could not run."""


def spawn(workload, seed, scale, mode):
    """Run one child in a fresh interpreter and return what it measured.

    ``REPRO_*`` variables are dropped so every repeat runs the shipped
    default toggles."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed),
           scale, mode]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise CheckFailed(f"{workload} {mode} child exited {proc.returncode}:"
                          f"\n{proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def repeats(workload, seed, scale, seconds):
    """Untraced repeats for about ``seconds``, each after SETUPS_PER_REPEAT
    set-up-only children: another repeat starts only while it is expected
    to end within the budget, and at least MIN_REPEATS run.  Returns the
    repeats and every set-up measured."""
    runs, setups, started = [], [], time.perf_counter()
    while True:
        setups += [spawn(workload, seed, scale, "setup")
                   for _ in range(SETUPS_PER_REPEAT)]
        runs.append(spawn(workload, seed, scale, "plain"))
        setups.append(runs[-1])
        elapsed = time.perf_counter() - started
        if len(runs) >= MIN_REPEATS and elapsed * (1 + 1 / len(runs)) > seconds:
            return runs, setups


def check(workload, runs):
    """Problems with a workload's repeats: failed operations, or repeats
    that took different modelled trajectories."""
    problems = []
    failed = sum(r["failed"] for r in runs)
    if failed:
        problems.append(f"{workload}: {failed} of "
                        f"{sum(r['attempted'] for r in runs)} operations failed")
    digests = {r["digest"] for r in runs}
    if len(digests) > 1:
        problems.append(f"{workload}: repeats took {len(digests)} different "
                        f"trajectories")
    return problems


def untraced(workload, seed, scale, seconds):
    """Repeats for about ``seconds``.  Metrics map a name to its kind,
    unit and values, one per repeat (per set-up for the set-up times);
    modelled values repeat exactly, so they keep one."""
    runs, setups = repeats(workload, seed, scale, seconds)
    metrics = {
        "wall_s": ("end_to_end", "s", [r["wall_s"] for r in runs]),
        "setup_s": ("end_to_end", "s", [s["setup_s"] for s in setups]),
        "peak_rss_mb": ("end_to_end", "MB", [r["peak_rss_mb"] for r in runs]),
        "host_wall_s": ("host", "s", [r["host_s"] for r in runs]),
        "host_setup_s": ("host", "s", [s["setup_host_s"] for s in setups]),
    }
    for name, (value, unit) in runs[0]["modelled"].items():
        metrics[name] = ("modelled", unit, [value])
    for name, (_, unit) in runs[0]["host"].items():
        metrics[name] = ("host", unit, [r["host"][name][0] for r in runs])
    return runs, metrics, check(workload, runs)


def traced(workload, seed, scale):
    """One untraced and one cProfile'd repeat, for the per-layer metrics."""
    plain = spawn(workload, seed, scale, "plain")
    profiled = spawn(workload, seed, scale, "trace")
    runs = [plain, profiled]
    problems = check(workload, runs)  # tracing must not move the trajectory
    coverage = profiled["trace"]["trace.coverage"][0]
    if coverage < MIN_COVERAGE:
        problems.append(f"{workload}: layers cover {coverage:.3f} of the "
                        f"traced wall time (need {MIN_COVERAGE})")
    metrics = {}
    for kind, group in (("modelled", profiled["modelled"]),
                        ("trace", profiled["trace"]), ("host", plain["host"])):
        metrics.update((name, (kind, unit, [value]))
                       for name, (value, unit) in group.items())
    metrics["trace.overhead"] = ("trace", "ratio",
                                 [profiled["host_s"] / plain["host_s"]])
    return runs, metrics, problems


def report(workload, seed, runs, metrics):
    """Print every metric of one workload by name, with its unit."""
    print(f"== {workload}  seed {seed}  {len(runs)} repeat(s)  "
          f"{sum(r['attempted'] for r in runs)} ops, "
          f"{sum(r['failed'] for r in runs)} failed  "
          f"trajectory {runs[0]['digest'][:16]}")
    for name, (_, unit, values) in metrics.items():
        line = f"  {name:38s} {statistics.median(values):14.6g} {unit}"
        if len(values) > 1:
            line += (f"  (min {min(values):.6g}, max {max(values):.6g}, "
                     f"n={len(values)})")
        print(line)


def git_state():
    """The commit measured, and whether ``src`` differs from it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                                  capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--", "src")
    return {"sha": git("rev-parse", "HEAD") or "unknown",
            "src_clean": None if status is None else status == ""}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="untraced measuring time per workload "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path,
                        help="write every repeat's values here as JSON")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        parser.exit(2, f"error: no simulator source at {ROOT / 'src'}\n")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = workloads if args.workload == "all" else [args.workload]
    records, problems = {}, []
    for workload in names:
        try:
            if args.trace:
                runs, metrics, found = traced(workload, args.seed, args.scale)
            else:
                runs, metrics, found = untraced(workload, args.seed,
                                                args.scale, args.seconds)
        except (CheckFailed, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        problems += found
        report(workload, args.seed, runs, metrics)
        for name, unit in wanted.items():
            measured = metrics.get(name, (None, "nothing"))[1]
            if measured != unit:
                raise SystemExit(f"BENCHMARK.json lists {name} in {unit}; "
                                 f"the benchmark measures {measured}")
        records[workload] = {
            "digest": runs[0]["digest"], "repeats": len(runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {name: {"kind": kind, "unit": unit, "values": values}
                        for name, (kind, unit, values) in metrics.items()},
        }

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if args.out:
        meta = {"nproc": os.cpu_count(), "python": platform.python_version(),
                "platform": platform.platform(), "seed": args.seed,
                "scale": args.scale, "seconds": args.seconds,
                "trace": args.trace,
                "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                **git_state()}
        args.out.write_text(json.dumps({"meta": meta, "workloads": records},
                                       indent=1) + "\n")

    line = {"correct": not problems,
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {}}
    for workload, record in records.items():
        prefix = "" if len(records) == 1 else f"{workload}/"
        for name, unit in wanted.items():
            values = record["metrics"][name]["values"]
            line["metrics"][prefix + name] = {
                "value": statistics.median(values), "unit": unit}
    print(json.dumps(line))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
