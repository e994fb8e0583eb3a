"""Command-line entry point: ``python -m repro [demo|migrate|trace|info]``.

* ``demo``    -- the quickstart scenario: remote execution plus a
  ``migrateprog`` preemption, narrated (default).
* ``migrate`` -- one instrumented mid-run migration with the pre-copy
  round/residual/freeze breakdown the paper reports.
* ``trace``   -- the same migration with full observability on: emits a
  Chrome/Perfetto timeline JSON, the metrics table, and the simulator's
  wall-clock self-profile.
* ``sweep``   -- a process-parallel parameter sweep: replicate a
  registered scenario over a config grid across worker processes, with
  byte-identical output regardless of worker count.
* ``chaos``   -- a fault-injection campaign: sweep fault schedules ×
  seeds with the invariant harness watching every event, print the
  verdict table, then run the differential pass (the lossless unit and
  4 tie-perturbed reruns that must match it).  Exit codes are shared
  with ``diff``: 0 clean, 1 any violation or mismatch (``--postmortem``
  replays the first failing campaign unit with the flight recorder
  armed), 2 usage error.
* ``report``  -- the instrumented migration distilled into a versioned
  RunReport JSON: metrics, span profile, phase breakdowns and
  KPIs, with the freeze-time decomposition checked against
  ``MigrationStats.freeze_us``.
* ``diff``    -- compare two RunReports under a tolerance: per-metric
  deltas plus per-subsystem time attribution (exit 1 beyond tolerance).
* ``info``    -- the calibrated hardware model and package layout.
"""

from __future__ import annotations

import argparse
import sys


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.cluster import build_cluster
    from repro.shell import Shell
    from repro.workloads import standard_registry

    cluster = build_cluster(
        n_workstations=args.workstations,
        registry=standard_registry(scale=0.2),
        seed=args.seed,
    )
    shell = Shell(cluster, "ws0")
    shell.run_script([
        "hosts",
        "tex paper.tex @ *",
        "longsim @ ws1 &",
        "ps ws1",
        "migrateprog %1",
    ])
    cluster.run(until_us=90_000_000)
    for line in shell.output:
        print(line)
    print(f"\n[{cluster.sim.now / 1e6:.1f} simulated seconds; "
          f"{cluster.net.packets_sent} packets on the Ethernet]")
    return 0


def _migrate_scenario(program: str, seed: int, setup=None):
    """The instrumented-migration scenario shared by ``migrate``,
    ``trace`` and ``report``: run ``program`` remotely on ws1, then
    migrate it off mid-run.  ``setup(cluster)`` runs right after the
    cluster is built -- before any traffic -- so enabling tracing/metrics
    there captures the whole run.  Returns ``(cluster, stats)``."""
    from repro.cluster import build_cluster
    from repro.execution import ExecSpec, exec_program
    from repro.kernel.process import Priority
    from repro.migration.manager import run_migration
    from repro.workloads import standard_registry

    cluster = build_cluster(
        n_workstations=3, registry=standard_registry(scale=3.0), seed=seed,
    )
    if setup is not None:
        setup(cluster)
    holder = {}

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec(program, where="ws1"))
        holder["pid"] = handle.pid

    cluster.spawn_session(cluster.workstations[0], session)
    while "pid" not in holder and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    cluster.run(until_us=cluster.sim.now + 1_000_000)
    kernel = cluster.workstations[1].kernel
    lh = kernel.logical_hosts[holder["pid"].logical_host_id]
    results = []

    def mgr():
        stats = yield from run_migration(kernel, lh)
        results.append(stats)

    kernel.create_process(
        cluster.pm("ws1").pcb.logical_host, mgr(),
        priority=Priority.MIGRATION, name="mgr",
    )
    while not results and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    return cluster, results[0]


def cmd_migrate(args: argparse.Namespace) -> int:
    cluster, stats = _migrate_scenario(args.program, args.seed)
    print(f"migrating a running {args.program!r} off ws1:")
    for r in stats.rounds:
        print(f"  pre-copy round {r.round_index}: {r.pages} pages "
              f"({r.bytes // 1024} KB) in {r.duration_us / 1000:.0f} ms")
    print(f"  frozen residual: {stats.residual_pages} pages "
          f"({stats.residual_bytes // 1024} KB)")
    print(f"  freeze time: {stats.freeze_us / 1000:.1f} ms "
          "(incl. kernel-state copy)")
    print(f"  total: {stats.total_us / 1000:.0f} ms -> {stats.dest_host}")
    print(f"  outcome: {stats.summary()}")
    return 0 if stats.success else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import SelfProfiler, export_timeline

    state = {}

    def setup(cluster):
        sim = cluster.sim
        sim.trace.enable("*")
        sim.metrics.enable()
        state["profiler"] = SelfProfiler(sim)

    cluster, stats = _migrate_scenario(args.program, args.seed, setup)
    sim = cluster.sim
    payload = export_timeline(
        sim.trace, out=args.out, metrics=sim.metrics,
        since_us=args.since_us, until_us=args.until_us,
    )

    spans = sim.trace.find_spans("migration", "freeze")
    freeze_dur = spans[0].duration_us if spans else None
    n_events = sum(1 for e in payload["traceEvents"] if e["ph"] != "M")
    print(f"traced migration of {args.program!r}: {stats.summary()}")
    print(f"timeline: {args.out} ({n_events} trace events; open in "
          "https://ui.perfetto.dev or chrome://tracing)")
    match = freeze_dur is not None and freeze_dur == stats.freeze_us
    print(f"freeze span: {freeze_dur} us {'==' if match else '!='} "
          f"stats.freeze_us {stats.freeze_us} us")
    print()
    print(sim.metrics.render())
    print()
    print(_routing_summary(cluster))
    print()
    print(state["profiler"].render())
    # Fail (for CI) unless the migration succeeded AND the exported
    # freeze span agrees exactly with the reported freeze time.
    return 0 if stats.success and match else 1


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import SelfProfiler, build_migration_report, render_report
    from repro.obs.report import write_report

    state = {}

    def setup(cluster):
        sim = cluster.sim
        sim.trace.enable("*")
        sim.metrics.enable()
        state["profiler"] = SelfProfiler(sim)

    cluster, stats = _migrate_scenario(args.program, args.seed, setup)
    report = build_migration_report(
        cluster, stats, seed=args.seed, program=args.program,
        profiler=state["profiler"],
    )
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}")
    print(render_report(report))
    ok = stats.success and report["checks"]["freeze_decomposition_ok"]
    return 0 if ok else 1


def cmd_diff(args: argparse.Namespace) -> int:
    import json

    from repro.errors import SimulationError
    from repro.obs import diff_reports, render_diff
    from repro.obs.diff import EXIT_DIFFERENT, EXIT_OK, EXIT_USAGE
    from repro.obs.report import load_report

    try:
        report_a = load_report(args.a)
        report_b = load_report(args.b)
    except SimulationError as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return EXIT_USAGE
    diff = diff_reports(
        report_a, report_b, rel_tol=args.tolerance / 100.0,
        abs_tol=args.abs_tolerance,
    )
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        print(render_diff(diff, max_rows=args.max_rows))
    return EXIT_OK if diff["ok"] else EXIT_DIFFERENT


def _routing_summary(cluster) -> str:
    """One-screen account of how this run's frames were routed and
    received: binding-cache hits and coalesced rx deliveries."""
    hits = misses = 0
    for station in cluster.workstations:
        cache = station.kernel.binding_cache
        hits += cache.hits
        misses += cache.misses
    lookups = hits + misses
    lines = [
        "routing summary",
        f"  binding cache     {hits}/{lookups} hits"
        + (f" ({100.0 * hits / lookups:.0f}%)" if lookups else ""),
        f"  rx batching       {cluster.net.rx_coalesced} deliveries coalesced",
    ]
    return "\n".join(lines)


def _parse_set_value(text: str):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.errors import SimulationError
    from repro.parallel import SweepSpec, run_sweep, scenario_names

    if args.scenario not in scenario_names():
        print(f"unknown scenario {args.scenario!r}; "
              f"known: {', '.join(scenario_names())}", file=sys.stderr)
        return 2
    grid = {}
    for item in args.set or []:
        key, eq, values = item.partition("=")
        if not eq or not key or not values:
            print(f"bad --set {item!r} (want key=v1[,v2,...])",
                  file=sys.stderr)
            return 2
        grid[key] = [_parse_set_value(v) for v in values.split(",")]
    try:
        spec = SweepSpec.from_grid(
            args.scenario, grid,
            replications=args.replications,
            master_seed=args.seed,
            workers=args.workers,
            chunk_size=args.chunk_size,
            timeout_s=args.timeout,
            collect_metrics=args.metrics,
        )
        result = run_sweep(spec)
    except SimulationError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    print(f"sweep {args.scenario!r}: {result.summary()}")
    for ci, config in enumerate(spec.configs):
        row = result.rows[ci]
        ok = sum(1 for r in row if r.get("success", True))
        shown = ", ".join(f"{k}={v}" for k, v in sorted(config.items()))
        mean_t = sum(r["sim_time_us"] for r in row) / len(row)
        print(f"  [{shown or 'defaults'}] {ok}/{len(row)} ok, "
              f"mean sim time {mean_t / 1e6:.3f} s")
    if result.metrics is not None:
        merged = result.metrics
        print(f"  metrics merged from {merged['merged_from']} replications "
              f"({merged['sim_time_us_total'] / 1e6:.1f} simulated seconds total)")
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(result.to_json())
                fh.write("\n")
            print(f"  wrote {args.out}")
        if args.report:
            from repro.obs.report import write_report

            write_report(result.run_report(), args.report)
            print(f"  wrote run report {args.report}")
    except OSError as exc:
        print(f"sweep: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.errors import SimulationError
    from repro.faults import (
        campaign_ok,
        differential_pass,
        pass_table,
        replay_failing_run,
        run_campaign,
        schedule_names,
        verdict_table,
    )
    from repro.obs.diff import EXIT_DIFFERENT, EXIT_OK, EXIT_USAGE

    schedules = args.schedules.split(",") if args.schedules else None
    try:
        result = run_campaign(
            schedules=schedules,
            seeds=args.seeds,
            master_seed=args.seed,
            workers=args.workers,
            messages=args.messages,
            break_rebinding=args.break_rebinding,
        )
    except SimulationError as exc:
        print(f"chaos: {exc} (schedules: {', '.join(schedule_names())})",
              file=sys.stderr)
        return EXIT_USAGE
    print(f"chaos campaign: {result.summary()}")
    print(verdict_table(result))
    differential = differential_pass(
        master_seed=args.seed, messages=args.messages,
        break_rebinding=args.break_rebinding,
    )
    print(pass_table(differential))
    try:
        if args.out:
            payload = dict(result.payload(), differential=differential)
            with open(args.out, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.out}")
        if args.report:
            from repro.obs.report import write_report

            write_report(result.run_report(kind="chaos"), args.report)
            print(f"wrote run report {args.report}")
    except OSError as exc:
        print(f"chaos: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if campaign_ok(result):
        return EXIT_OK if differential["ok"] else EXIT_DIFFERENT
    # Something fired: replay the first failing unit with the flight
    # recorder armed so the postmortem bundle survives the exit.
    bundle = replay_failing_run(result, args.postmortem)
    if bundle:
        print(f"invariant violation: postmortem bundle at {bundle}/",
              file=sys.stderr)
    return EXIT_DIFFERENT


def cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.config import DEFAULT_MODEL

    print(f"repro {repro.__version__} -- Theimer/Lantz/Cheriton, SOSP 1985")
    print("calibrated hardware model (paper section 4.1):")
    model = DEFAULT_MODEL
    rows = [
        ("address-space copy", f"{model.bulk_copy_us(1024 * 1024) / 1e6:.2f} s/MB"),
        ("program load", f"{model.program_load_us(100 * 1024) / 1e3:.0f} ms/100 KB"),
        ("kernel-state copy", f"{model.kernel_state_copy_base_us / 1e3:.0f} ms + "
         f"{model.kernel_state_copy_per_object_us / 1e3:.0f} ms/object"),
        ("group-id indirection", f"{model.group_id_lookup_us} us/op"),
        ("frozen check", f"{model.frozen_check_us} us/op"),
        ("workstation memory", f"{model.workstation_memory_bytes // (1024 * 1024)} MB"),
        ("Ethernet", f"{model.ethernet_bits_per_us:.0f} Mbit/s"),
    ]
    for name, value in rows:
        print(f"  {name:24s} {value}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Preemptable remote execution for the V-System (SOSP '85), simulated.",
    )
    sub = parser.add_subparsers(dest="command")
    demo = sub.add_parser("demo", help="quickstart scenario (default)")
    demo.add_argument("--workstations", type=int, default=4)
    demo.add_argument("--seed", type=int, default=42)
    migrate = sub.add_parser("migrate", help="one instrumented migration")
    migrate.add_argument("--program", default="tex",
                         choices=["tex", "parser", "optimizer", "assembler",
                                  "preprocessor", "linking_loader", "longsim"])
    migrate.add_argument("--seed", type=int, default=0)
    trace = sub.add_parser(
        "trace", help="migration with timeline/metrics/profile export"
    )
    trace.add_argument("--program", default="tex",
                       choices=["tex", "parser", "optimizer", "assembler",
                                "preprocessor", "linking_loader", "longsim"])
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", default="timeline.json",
                       help="Chrome trace_event JSON output path")
    trace.add_argument("--since-us", type=int, default=0,
                       help="export only events at or after this sim time")
    trace.add_argument("--until-us", type=int, default=None,
                       help="export only events before this sim time "
                            "(half-open window)")
    sweep = sub.add_parser(
        "sweep", help="process-parallel scenario sweep"
    )
    sweep.add_argument("--scenario", default="migration",
                       help="registered scenario name (see repro.parallel)")
    sweep.add_argument("--set", action="append", metavar="KEY=V1[,V2,...]",
                       help="grid axis: sweep KEY over the listed values "
                            "(repeatable; cartesian product)")
    sweep.add_argument("--replications", type=int, default=1)
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--chunk-size", type=int, default=0,
                       help="units per work chunk (0 = auto)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-chunk wall-clock timeout in seconds")
    sweep.add_argument("--metrics", action="store_true",
                       help="collect and merge repro.obs metrics")
    sweep.add_argument("--out", default=None,
                       help="write the merged JSON payload here")
    sweep.add_argument("--report", default=None, metavar="PATH",
                       help="also write a RunReport JSON (diffable with "
                            "'python -m repro diff')")
    chaos = sub.add_parser(
        "chaos", help="fault-injection campaign with invariant verdicts"
    )
    chaos.add_argument("--schedules", default=None,
                       metavar="NAME[,NAME,...]",
                       help="fault schedules to sweep (default: all)")
    chaos.add_argument("--seeds", type=int, default=10,
                       help="replications (seeds) per schedule")
    chaos.add_argument("--seed", type=int, default=0,
                       help="campaign master seed (it also seeds the "
                            "differential pass's 4 tie perturbers)")
    chaos.add_argument("--workers", type=int, default=1)
    chaos.add_argument("--messages", type=int, default=30,
                       help="client requests per run")
    chaos.add_argument("--break-rebinding", action="store_true",
                       help="intentionally disable lazy rebinding (every "
                            "campaign unit and pass record must then FAIL "
                            "no-residual-dependency)")
    chaos.add_argument("--out", default=None,
                       help="write the merged JSON payload, with the "
                            "differential pass's records, here")
    chaos.add_argument("--report", default=None, metavar="PATH",
                       help="also write a RunReport JSON for the campaign")
    chaos.add_argument("--postmortem", default="chaos-postmortem",
                       metavar="DIR",
                       help="where a failing campaign's flight-recorder "
                            "bundle lands (default: chaos-postmortem)")
    report = sub.add_parser(
        "report", help="instrumented migration as a RunReport JSON"
    )
    report.add_argument("--program", default="tex",
                        choices=["tex", "parser", "optimizer", "assembler",
                                 "preprocessor", "linking_loader", "longsim"])
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--out", default=None,
                        help="write the RunReport JSON here")
    diff = sub.add_parser(
        "diff", help="compare two RunReports (subsystem attribution)"
    )
    diff.add_argument("a", help="baseline RunReport JSON")
    diff.add_argument("b", help="candidate RunReport JSON")
    diff.add_argument("--tolerance", type=float, default=1.0,
                      metavar="PCT",
                      help="relative tolerance in percent (default 1.0)")
    diff.add_argument("--abs-tolerance", type=float, default=0.0,
                      help="absolute tolerance (same units as each metric)")
    diff.add_argument("--max-rows", type=int, default=20,
                      help="top movers to show in the table")
    diff.add_argument("--json", action="store_true",
                      help="emit the full diff as JSON instead of a table")
    sub.add_parser("info", help="calibrated model summary")
    args = parser.parse_args(argv)
    command = args.command or "demo"
    if command == "demo" and not hasattr(args, "workstations"):
        args.workstations, args.seed = 4, 42
    handler = {"demo": cmd_demo, "migrate": cmd_migrate, "trace": cmd_trace,
               "sweep": cmd_sweep, "chaos": cmd_chaos, "report": cmd_report,
               "diff": cmd_diff,
               "info": cmd_info}[command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
