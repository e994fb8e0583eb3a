"""One repeat of one benchmark workload, in a fresh interpreter.

``bench/run.py`` starts this script once per repeat::

    python3 bench/child.py WORKLOAD SEED SCALE MODE

and reads the one JSON object it prints last.  Set-up runs from just
before ``import repro`` to the start of the timed region.  ``host_s`` and
``setup_host_s`` are host seconds; ``wall_s`` and ``setup_s`` are the
same spans at the reference speed (see ``Region``).  MODE is ``plain``;
``trace``, where the timed region runs under ``cProfile`` and the
simulator's metrics registry is on (tracing only observes, so the
trajectory digest must not change); or ``setup``, which stops where the
timed region would start and reports set-up alone.
"""

import heapq
import time

#: Seconds the reference kernel takes at the reference speed: its median
#: on a quiet 2-core x86-64 VM under Python 3.11.  Reported ``wall_s`` and
#: ``setup_s`` are seconds at that speed.
CAL_REF_S = 0.00038
#: The kernel is timed at most this often inside the timed region.
CAL_EVERY_S = 0.05
_CAL_ITERS = 600
_CAL_BUF = bytearray(1 << 18)


def _kernel():
    heap, table, buf = [], {}, _CAL_BUF
    size = len(buf)

    def task():
        total = 0
        while True:
            total += yield total

    gen = task()
    next(gen)
    x = 1
    for i in range(_CAL_ITERS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, x & 1023)
        table[x & 255] = gen.send(i & 7)
        buf[x % size] = i & 255
        if len(heap) > 64:
            heapq.heappop(heap)


def calibrate():
    """Host seconds for a fixed piece of pure-Python work of the kinds
    the simulator does (heap, generator, dict, scattered memory): the
    median of three timings, so one interrupt does not count."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


calibrate()  # the first run pays for the interpreter's specialisation
_CAL0 = calibrate()
_T0 = time.perf_counter()

import cProfile  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != SRC / "repro":
    raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")

from repro.config import PAGE_SIZE  # noqa: E402

#: Sizes per scale: ``full`` is the measured benchmark, each repeat about
#: 5 s of host time (the probe storm about 7 s), and ``smoke`` the
#: sub-second variant the benchmark's own tests run.  The job storms run
#: 3 execs/s on average, over a span fixed by the job count (``job_rate``):
#: at 5-6/s random_k placement runs past its 4 s retry deadline and some
#: execs fail on some seeds, and with fewer than ~288 jobs the run's event
#: count swings with the seed's arrival draw.
SCALES = {
    "full": {"storm_waves": 80, "jobs": 288, "job_hosts": 128,
             "chaos_seeds": 47},
    "smoke": {"storm_waves": 2, "jobs": 96, "job_hosts": 16,
              "chaos_seeds": 1},
}
JOB_RATE_PER_S = 3.0
CHAOS_MESSAGES = 20

#: The storm's program: a 1.5 MB space (most of a paper-era 2 MB
#: workstation) dirtied across its whole working set every tick, so each
#: pre-copy round scans a full page table and the capped pager keeps
#: evicting.  It never exits, so no migration races a program's exit.
HOG_PAGES = (1536 * 1024) // PAGE_SIZE
HOG_IMAGE_BYTES = 64 * 1024
HOG_HOT_PAGES = 24
HOG_COLD_WRITES_PER_TICK = 10
HOG_TICK_US = 20_000
STORM_HOGS = 6
STORM_HOSTS = 16

#: The layers host time is split into: the ``src/repro`` packages, with
#: the scheduler, which steps every simulated process, apart from the
#: rest of ``kernel``.  Everything else (the standard library, this
#: benchmark, packages not listed) is ``other``.
LAYERS = ("sim.engine", "kernel.scheduler", "kernel", "vm", "ipc", "net",
          "migration", "services", "cluster", "execution", "workloads",
          "faults", "obs", "other")

#: Boundary functions whose cProfile call counts are reported: metric
#: name -> (file under src/repro, function name).  Every function of that
#: name in that file counts, so the placement policies share one
#: ``select`` boundary.
BOUNDARIES = {
    "calls.Simulator.schedule": ("sim/engine.py", "schedule"),
    "calls.Ethernet.transmit": ("net/ethernet.py", "transmit"),
    "calls.Transport.client_send": ("ipc/transport.py", "client_send"),
    "calls.Transport.copy_to": ("ipc/transport.py", "copy_to"),
    "calls.Transport.copy_from": ("ipc/transport.py", "copy_from"),
    "calls.Pager.service_faults": ("vm/pager.py", "service_faults"),
    "calls.Scheduler.make_ready": ("kernel/scheduler.py", "make_ready"),
    "calls.PlacementPolicy.select": ("cluster/placement.py", "select"),
    "calls.HostStateCache.observe": ("cluster/placement.py", "observe"),
    "calls.InvariantChecker.after_event": ("faults/invariants.py",
                                           "after_event"),
}

#: Registry counters reported by the traced run, as cluster-wide sums,
#: with their units (``sim_us``: simulated microseconds).
COUNTERS = {
    "sched.context_switches": "count", "vm.faults": "count",
    "vm.fault_us": "sim_us", "vm.evictions": "count",
    "vm.flushed_pages": "count", "ipc.sends": "count",
    "ipc.retransmissions": "count", "ipc.naks": "count",
    "ipc.rebinds": "count", "ipc.copy_pages": "count",
    "net.tx_packets": "count", "net.tx_bytes": "bytes",
    "net.drops": "count", "net.bus_wait_us": "sim_us",
    "mig.migrations": "count", "mig.failures": "count",
    "mig.rounds": "count", "mig.residual_bytes": "bytes",
    "placement.queries": "count", "placement.probes": "count",
    "placement.refresh_queries": "count", "placement.declines": "count",
    "placement.retries": "count", "placement.fallbacks": "count",
    "placement.cache.observations": "count",
}


class SetupDone(Exception):
    """Raised where the timed region would start, in ``setup`` mode."""


class Region:
    """The timed region.  ``begin`` ends set-up and ``end`` closes it.

    The host's speed drifts: other tenants slow it by up to half, for
    seconds or minutes at a time, and no statistic over repeats removes
    that.  So at points the trajectory fixes (``mark``), at most every
    CAL_EVERY_S, the reference kernel is timed outside the region's
    clock, and each stretch between two timings counts at the reference
    speed: its host time times CAL_REF_S over the mean of the kernel times
    at its two ends.  A traced region is not calibrated.
    """

    def __init__(self, mode):
        self.mode = mode
        self.profile = cProfile.Profile() if mode == "trace" else None
        self.start = self.since = self.cal = None
        self.host_s = self.ref_s = 0.0

    def begin(self):
        if self.start is not None:
            raise RuntimeError("timed region started twice")
        self.start = time.perf_counter()
        self.cal = calibrate()
        if self.mode == "setup":
            raise SetupDone
        if self.profile is not None:
            self.profile.enable()
        self.since = time.perf_counter()

    def clock(self):
        """Host seconds spent in the region so far, calibration excluded."""
        return self.host_s + time.perf_counter() - self.since

    def mark(self, last=False):
        now = time.perf_counter()
        if self.profile is not None or (now - self.since < CAL_EVERY_S
                                        and not last):
            return
        cal = calibrate()
        self.host_s += now - self.since
        self.ref_s += (now - self.since) * 2 * CAL_REF_S / (self.cal + cal)
        self.cal = cal
        self.since = time.perf_counter()

    def end(self):
        if self.since is None:
            raise RuntimeError("timed region never started")
        if self.profile is not None:
            self.profile.disable()
            self.host_s = time.perf_counter() - self.since
        else:
            self.mark(last=True)

    def mark_runs(self, sim):
        """Call ``mark`` whenever a ``sim.run`` call returns."""
        run = sim.run

        def marked_run(*args, **kwargs):
            try:
                return run(*args, **kwargs)
            finally:
                self.mark()

        sim.run = marked_run


def nearest_rank(values, q):
    """Nearest-rank percentile, the rule ``job_storm`` reports (0 if empty)."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * (len(ordered) - 1) + 0.5)))
    return ordered[rank]


# -- workloads -----------------------------------------------------------------

def _hog_registry():
    from repro.execution.program import ProgramImage
    from repro.kernel.process import Compute, TouchPages
    from repro.workloads import standard_registry

    def hog_body(ctx):
        rng = ctx.sim.rand.stream(f"wl:hog:{ctx.self_pid.as_int():08x}")
        base = HOG_IMAGE_BYTES // PAGE_SIZE
        hot = list(range(base, base + HOG_HOT_PAGES))
        cold_lo, cold_hi = base + HOG_HOT_PAGES, HOG_PAGES - 16
        while True:
            yield Compute(HOG_TICK_US)
            cold = rng.sample(range(cold_lo, cold_hi),
                              HOG_COLD_WRITES_PER_TICK)
            yield TouchPages(hot + cold)

    registry = standard_registry()
    registry.register(ProgramImage(
        name="hog", image_bytes=HOG_IMAGE_BYTES,
        space_bytes=HOG_PAGES * PAGE_SIZE,
        code_bytes=int(HOG_IMAGE_BYTES * 0.7), body_factory=hog_body,
    ))
    return registry


def _run_until(cluster, predicate, step_us=50_000):
    sim = cluster.sim
    while not predicate():
        if sim.peek() is None:
            raise RuntimeError("simulation drained before the condition held")
        sim.run(until_us=sim.now + step_us)


def migration_storm(seed, size, region, trace):
    """Six hogs bounce between two host sets in concurrent waves, pre-copy
    and VM-flush alternating; before each wave a demand-paging thrash
    caps residency at a sixth of each space."""
    from repro.cluster import build_cluster
    from repro.execution.api import ExecSpec, exec_program
    from repro.kernel.process import Priority
    from repro.migration.manager import run_migration
    from repro.migration.vm_flush import run_vm_flush_migration
    from repro.vm.pager import attach_pager

    cluster = build_cluster(n_workstations=STORM_HOSTS, seed=seed,
                            registry=_hog_registry())
    sim = cluster.sim
    if trace:
        sim.metrics.enable()
    pids = []

    def launcher(ctx):
        for i in range(1, STORM_HOGS + 1):
            handle = yield from exec_program(ctx, ExecSpec("hog",
                                                           where=f"ws{i}"))
            pids.append(handle.pid)

    cluster.spawn_session(cluster.workstations[0], launcher, name="launch")
    _run_until(cluster, lambda: len(pids) == STORM_HOGS)
    cluster.run(until_us=sim.now + 200_000)

    homes = [f"ws{i}" for i in range(1, STORM_HOGS + 1)]
    away = [f"ws{i + STORM_HOGS}" for i in range(1, STORM_HOGS + 1)]
    results, unit_s = [], []
    space_pages = 0

    def thrash(victims):
        for kernel, lh in victims:
            for space in lh.spaces:
                pager = attach_pager(kernel, space,
                                     max_resident=max(8, space.n_pages // 6))
                for page in space.pages:
                    pager.store[page.index] = page.version
                space.collect_dirty()  # the store now holds every page
                pager.attach(space, resident=False)
        cluster.run(until_us=sim.now + 600_000)

    region.begin()
    region.mark_runs(sim)
    for wave in range(size["storm_waves"]):
        started = region.clock()
        src, dst = (homes, away) if wave % 2 == 0 else (away, homes)
        victims = []
        for pid, name in zip(pids, src):
            kernel = cluster.station(name).kernel
            victims.append((kernel, kernel.logical_hosts[pid.logical_host_id]))
        thrash(victims)
        expected = len(results) + len(victims)
        for ordinal, (kernel, lh) in enumerate(victims):
            space_pages += sum(space.n_pages for space in lh.spaces)
            dest = cluster.pm(dst[ordinal]).pcb.pid
            migrate = run_vm_flush_migration if ordinal % 2 else run_migration

            def mgr(kernel=kernel, lh=lh, dest=dest, migrate=migrate,
                    key=(wave, ordinal)):
                stats = yield from migrate(kernel, lh, dest_pm=dest)
                results.append((key, stats))

            kernel.create_process(cluster.pm(src[ordinal]).pcb.logical_host,
                                  mgr(), priority=Priority.MIGRATION,
                                  name=f"storm-mgr-{wave}-{ordinal}")
        _run_until(cluster, lambda: len(results) == expected)
        unit_s.append(region.clock() - started)
    cluster.run(until_us=sim.now + 200_000)
    region.end()

    results.sort(key=lambda r: r[0])
    stats = [s for _, s in results]
    copied = sum(sum(r.pages for r in s.rounds) + s.residual_pages
                 for s in stats)
    return {
        "sim_time_us": sim.now, "events": sim.event_count,
        "packets": cluster.net.packets_sent,
        "outcomes": [[*key, s.success, s.error, s.precopy_rounds,
                      s.residual_pages, s.freeze_us] for key, s in results],
        "attempted": len(stats),
        "failed": sum(1 for s in stats if not s.success),
        "freeze_us": [s.freeze_us for s in stats if s.success],
        "unit_s": unit_s,
        "pages_copied_per_space_page": copied / space_pages,
        "snapshots": [sim.metrics.snapshot()] if trace else [],
    }


def job_rate(seed, jobs):
    """The arrival rate at which this seed's ``jobs`` arrivals end after
    ``jobs / JOB_RATE_PER_S`` seconds.

    The scenario draws its gaps as ``expovariate(rate)`` from the
    ``job_storm:arrivals`` stream, so the seed fixes the arrival pattern
    and the rate only scales it.  At one fixed rate the span moves by ±6%
    with the seed, and the probe storm's host time, most of it 128 hosts'
    anti-entropy daemons, moves with it.  ``job_storm`` checks that the
    last arrival lands where intended.
    """
    from repro.sim.random import RandomStreams

    stream = RandomStreams(seed).stream("job_storm:arrivals")
    return sum(stream.expovariate(1.0) for _ in range(jobs)) * JOB_RATE_PER_S / jobs


def job_storm(policy, seed, size, region, trace):
    """The shipped ``job_storm`` scenario: open-loop Poisson ``@ *`` execs.

    The scenario builds its own cluster, so the timed region starts when
    ``build_cluster`` returns; each job's exec handle and exit code are
    read as it is waited on.  Both wrappers return what the wrapped call
    returns, so the trajectory is the scenario's own.  They take effect
    only because ``workloads/job_storm.py`` imports ``build_cluster`` and
    ``wait_program`` inside the scenario function, at call time.
    """
    import repro.cluster
    import repro.execution.api as exec_api
    from repro.parallel.scenarios import get_scenario

    real_build, real_wait = repro.cluster.build_cluster, exec_api.wait_program
    handles, codes = [], []

    def build_cluster(*args, **kwargs):
        cluster = real_build(*args, **kwargs)
        region.begin()
        region.mark_runs(cluster.sim)
        return cluster

    def wait_program(ctx, handle):
        handles.append(handle)
        code = yield from real_wait(ctx, handle)
        codes.append(code)
        return code

    span_us = size["jobs"] / JOB_RATE_PER_S * 1e6
    config = {"workstations": size["job_hosts"], "jobs": size["jobs"],
              "rate_per_s": job_rate(seed, size["jobs"]), "policy": policy}
    repro.cluster.build_cluster = build_cluster
    exec_api.wait_program = wait_program
    try:
        result = get_scenario("job_storm")(config, seed,
                                           collect_metrics=trace)
    finally:
        repro.cluster.build_cluster = real_build
        exec_api.wait_program = real_wait
    region.end()

    last = max(h.requested_at for h in handles)
    if abs(last - span_us) > 0.01 * span_us:
        raise RuntimeError(f"last exec requested at {last} us, not at the "
                           f"intended {span_us:.0f} us")
    latencies = [h.started_at - h.requested_at for h in handles]
    snapshot = result.pop("metrics", None)
    return {
        "sim_time_us": result["sim_time_us"], "events": result["events"],
        "packets": result["packets"],
        "outcomes": result,
        "attempted": result["jobs"],
        "failed": result["jobs"] - codes.count(0),
        "exec_to_start_us": latencies,
        "selection_msgs_per_exec": result["selection_msgs_per_exec"],
        "attempts_per_exec": result["placement_attempts_mean"],
        "snapshots": [snapshot] if trace else [],
    }


def chaos_campaign(seed, size, region, trace):
    """The chaos campaign's units, each a direct call of the ``chaos``
    scenario with the invariant checker on every event.

    The ``burst`` schedule is left out: under burst loss a migration
    whose first transfer gets no response is retried, and in about one
    burst unit in 500 the migrated logical host is then runnable on two
    hosts (single-execution violations; master seed 4, unit 0/9).  The
    benchmark needs workloads on which no operation fails.
    """
    from repro.faults.campaign import (campaign_spec, chaos_scenario,
                                       schedule_names)

    spec = campaign_spec(
        schedules=[s for s in schedule_names() if s != "burst"],
        seeds=size["chaos_seeds"], master_seed=seed, messages=CHAOS_MESSAGES)
    outcomes, unit_s, snapshots = [], [], []
    region.begin()
    for _ci, _ri, unit_seed, config in spec.units():
        started = region.clock()
        result = chaos_scenario(config, unit_seed, collect_metrics=trace)
        unit_s.append(region.clock() - started)
        region.mark()
        if trace:
            snapshots.append(result.pop("metrics"))
        outcomes.append(result)
    region.end()

    migrations = [r["migration"] for r in outcomes if r["migration"]]
    return {
        "sim_time_us": sum(r["sim_time_us"] for r in outcomes),
        "events": sum(r["events"] for r in outcomes),
        "packets": sum(r["packets"] for r in outcomes),
        "outcomes": outcomes,
        "attempted": len(outcomes),
        "failed": sum(1 for r in outcomes if not r["invariants_ok"]),
        "degraded": sum(1 for r in outcomes
                        if r["completed"] < r["messages"]
                        or not (r["migration"] and r["migration"]["success"])),
        "freeze_us": [m["freeze_us"] for m in migrations if m["success"]],
        "unit_s": unit_s,
        "events_checked": sum(r["events_checked"] for r in outcomes),
        "snapshots": snapshots,
    }


WORKLOADS = {
    "migration_storm": migration_storm,
    "job_storm_multicast": lambda *a: job_storm("first_responder", *a),
    "job_storm_probe": lambda *a: job_storm("random_k", *a),
    "chaos_campaign": chaos_campaign,
}


# -- metrics -------------------------------------------------------------------

def _layer_of(filename):
    """The layer a source file belongs to."""
    try:
        parts = Path(filename).resolve().relative_to(SRC / "repro").parts
    except ValueError:
        return "other"
    if parts[0] == "sim":
        return "sim.engine"
    if parts[:2] == ("kernel", "scheduler.py"):
        return "kernel.scheduler"
    return parts[0] if parts[0] in LAYERS else "other"


def split_profile(profile):
    """Self time per layer, and the boundary call counts.

    A C builtin (``~`` filename) has no layer of its own: its self time
    is charged to the layers of its callers, edge by edge, so the layers
    sum to all profiled self time.
    """
    stats = pstats.Stats(profile).stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    layers = {}

    def layer(key):
        if key not in layers:
            layers[key] = "other" if key[0] == "~" else _layer_of(key[0])
        return layers[key]

    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        if key[0] != "~":
            self_s[layer(key)] += tt
            continue
        charged = 0.0
        for caller, edge in callers.items():
            self_s[layer(caller)] += edge[2]
            charged += edge[2]
        self_s["other"] += max(0.0, tt - charged)

    wanted = {(str(SRC / "repro" / path), fn): name
              for name, (path, fn) in BOUNDARIES.items()}
    calls = dict.fromkeys(BOUNDARIES, 0)
    for (filename, _line, fn), (_cc, nc, *_rest) in stats.items():
        name = wanted.get((filename, fn))
        if name is not None:
            calls[name] += nc
    return self_s, calls


def fold_snapshots(snapshots):
    """Cluster-wide counter sums and the deepest run queue, over runs."""
    totals = dict.fromkeys(COUNTERS, 0)
    runq = 0
    for snap in snapshots:
        cluster = snap["cluster"]
        for name in COUNTERS:
            totals[name] += cluster.get(name) or 0
        depth = cluster.get("sched.runq_depth")
        if depth:
            runq = max(runq, depth["max"])
    return totals, runq


def digest(result):
    """SHA-256 of the modelled trajectory: simulated time, events, packets
    and every per-operation outcome."""
    body = json.dumps([result["sim_time_us"], result["events"],
                       result["packets"], result["outcomes"]],
                      sort_keys=True, default=str)
    return hashlib.sha256(body.encode()).hexdigest()


def modelled_metrics(result):
    """Deterministic modelled values: equal seeds give equal numbers.
    ``sim_ms`` is simulated time; 0 where a workload has no such op."""
    freeze = result.get("freeze_us", [])
    starts = result.get("exec_to_start_us", [])
    return {
        "freeze_ms_p50": (nearest_rank(freeze, 0.50) / 1000, "sim_ms"),
        "freeze_ms_p95": (nearest_rank(freeze, 0.95) / 1000, "sim_ms"),
        "exec_to_start_ms_p50": (nearest_rank(starts, 0.50) / 1000, "sim_ms"),
        "exec_to_start_ms_p95": (nearest_rank(starts, 0.95) / 1000, "sim_ms"),
        "selection_msgs_per_exec": (result.get("selection_msgs_per_exec", 0),
                                    "msgs/exec"),
        "placement.attempts_per_exec": (result.get("attempts_per_exec", 0),
                                        "ratio"),
        "mig.pages_copied_per_space_page": (
            result.get("pages_copied_per_space_page", 0), "ratio"),
        "faults.events_checked": (result.get("events_checked", 0), "count"),
        "chaos.degraded_units": (result.get("degraded", 0), "count"),
        "sim.events": (result["events"], "count"),
    }


def host_metrics(result, wall_s):
    """Host-clock values that only mean something untraced."""
    unit_ms = [s * 1000 for s in result.get("unit_s", [])]
    return {
        "unit_wall_ms_p50": (nearest_rank(unit_ms, 0.50), "ms"),
        "unit_wall_ms_p95": (nearest_rank(unit_ms, 0.95), "ms"),
        "sim.events_per_wall_s": (result["events"] / wall_s, "1/s"),
        "sim.sim_s_per_wall_s": (result["sim_time_us"] / 1e6 / wall_s, "s/s"),
    }


def trace_metrics(profile, snapshots, wall_s):
    """Per-layer host time, boundary calls and registry counters."""
    self_s, calls = split_profile(profile)
    counters, runq = fold_snapshots(snapshots)
    out = {f"{name}.self_s": (s, "s") for name, s in self_s.items()}
    out["trace.coverage"] = (sum(self_s.values()) / wall_s, "ratio")
    out.update((name, (n, "count")) for name, n in calls.items())
    out.update((name, (counters[name], unit))
               for name, unit in COUNTERS.items())
    out["sched.runq_depth_max"] = (runq, "count")
    sends = counters["ipc.sends"]
    out["ipc.retransmit_ratio"] = (
        counters["ipc.retransmissions"] / sends if sends else 0.0, "ratio")
    return out


def main(argv):
    workload, seed, scale, mode = argv[0], int(argv[1]), argv[2], argv[3]
    if mode not in ("plain", "trace", "setup"):
        raise SystemExit(f"unknown mode {mode!r}")
    region, trace = Region(mode), mode == "trace"
    try:
        result = WORKLOADS[workload](seed, SCALES[scale], region, trace)
    except SetupDone:
        result = None
    setup = {"setup_host_s": region.start - _T0,
             "setup_s": (region.start - _T0) * 2 * CAL_REF_S
                        / (_CAL0 + region.cal)}
    if result is None:
        sys.stdout.write(json.dumps(setup) + "\n")
        return
    out = {
        **setup,
        "host_s": region.host_s,
        "wall_s": None if trace else region.ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest(result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "modelled": modelled_metrics(result),
        "host": host_metrics(result, region.host_s if trace else region.ref_s),
    }
    if trace:
        out["trace"] = trace_metrics(region.profile, result["snapshots"],
                                     region.host_s)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
