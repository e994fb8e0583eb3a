"""End-to-end observability of a migration: causal span tree, unified
metrics, and the no-trajectory-change guarantee."""

from repro.cluster.monitor import ClusterMonitor
from repro.execution import ExecSpec, ProgramImage, ProgramRegistry, exec_program
from repro.kernel.process import Compute, TouchPages
from repro.migration.migrateprog import migrate_program


def churner(iterations=150, pages_per_burst=2, compute_us=50_000, space_pages=48):
    def body(ctx):
        for i in range(iterations):
            yield Compute(compute_us)
            first = (i * pages_per_burst) % (space_pages - pages_per_burst)
            yield TouchPages(range(first, first + pages_per_burst))
        return 0

    return body


def run_migration_scenario(seed=0, instrument=None):
    """Start a churner remotely on ws1 and migrate it off; returns
    (cluster, reply) where reply carries the MigrationStats."""
    from repro.cluster import build_cluster

    registry = ProgramRegistry()
    registry.register(ProgramImage(
        name="churner", image_bytes=64 * 1024, space_bytes=128 * 1024,
        code_bytes=48 * 1024, body_factory=churner(),
    ))
    cluster = build_cluster(n_workstations=3, seed=seed, registry=registry)
    if instrument is not None:
        instrument(cluster)
    state = {}

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec("churner", where="ws1"))
        state["pid"] = handle.pid

    cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=2_000_000)
    results = []

    def migrator(ctx):
        reply = yield from migrate_program(state["pid"])
        results.append(reply)

    cluster.spawn_session(cluster.workstations[0], migrator, name="migrator")
    cluster.run(until_us=60_000_000)
    assert results and results[0]["ok"], results
    return cluster, results[0]


def enable_all(cluster):
    cluster.sim.trace.enable("*")
    cluster.sim.metrics.enable()


class TestCausalTree:
    def test_freeze_span_contains_exactly_the_residual_copies(self):
        cluster, reply = run_migration_scenario(instrument=enable_all)
        trace = cluster.sim.trace
        stats = reply["stats"]

        (freeze,) = trace.find_spans("migration", "freeze")
        children = trace.children_of(freeze.span_id)
        assert children, "freeze span has no children"
        assert all(s.name == "residual-copy" for s in children)
        assert len(children) == stats.n_spaces
        for child in children:
            assert freeze.contains(child)

    def test_freeze_span_duration_equals_stats_freeze_us(self):
        cluster, reply = run_migration_scenario(instrument=enable_all)
        (freeze,) = cluster.sim.trace.find_spans("migration", "freeze")
        assert freeze.duration_us == reply["stats"].freeze_us

    def test_migrate_root_spans_phase_chain(self):
        cluster, reply = run_migration_scenario(instrument=enable_all)
        trace = cluster.sim.trace
        (root,) = trace.find_spans("migration", "migrate")
        phases = [s.name for s in trace.children_of(root.span_id)]
        assert phases == ["precopy", "freeze", "rebind"]
        (precopy,) = trace.find_spans("migration", "precopy")
        rounds = trace.children_of(precopy.span_id)
        assert len(rounds) == reply["stats"].precopy_rounds
        assert all(s.name == "precopy-round" for s in rounds)
        assert root.data["outcome"] == "ok"

    def test_ipc_spans_close_with_outcomes(self):
        cluster, _ = run_migration_scenario(instrument=enable_all)
        sends = cluster.sim.trace.find_spans("ipc")
        assert sends, "no IPC spans recorded"
        ended = [s for s in sends if s.end_us is not None]
        assert ended and all(s.data.get("outcome") for s in ended)


class TestUnifiedMetrics:
    def test_migration_metrics_recorded(self):
        cluster, reply = run_migration_scenario(instrument=enable_all)
        m = cluster.sim.metrics
        stats = reply["stats"]
        assert m.aggregate("mig.migrations") == 1
        assert m.aggregate("mig.freeze_us") == stats.freeze_us
        assert m.aggregate("mig.rounds") == stats.precopy_rounds
        assert m.aggregate("mig.residual_bytes") == stats.residual_bytes

    def test_layers_all_report(self):
        cluster, _ = run_migration_scenario(instrument=enable_all)
        m = cluster.sim.metrics
        assert m.aggregate("ipc.sends") > 0
        assert m.aggregate("sched.context_switches") > 0
        assert m.aggregate("kernel.freezes") == 1
        assert m.aggregate("kernel.unfreezes") == 1
        assert m.aggregate("net.tx_packets") == cluster.net.packets_sent
        assert m.aggregate("ipc.copy_bytes") > 0
        latency = m.aggregate("ipc.send_latency_us")
        assert latency.count > 0

    def test_monitor_exposes_registry(self):
        cluster, _ = run_migration_scenario(instrument=enable_all)
        monitor = ClusterMonitor(cluster)
        snap = monitor.metrics()
        assert snap["cluster"]["ipc.sends"] > 0
        assert "ipc.sends" in monitor.render_metrics()


class TestZeroCost:
    def test_instrumentation_does_not_change_trajectory(self):
        """Enabled metrics+tracing must not alter the simulated run."""
        plain, plain_reply = run_migration_scenario(seed=7)
        traced, traced_reply = run_migration_scenario(seed=7, instrument=enable_all)
        assert traced.sim.now == plain.sim.now
        assert traced.sim.event_count == plain.sim.event_count
        assert traced_reply["stats"].freeze_us == plain_reply["stats"].freeze_us
        assert traced_reply["dest"] == plain_reply["dest"]
        # And the uninstrumented run recorded nothing.
        assert plain.sim.trace.spans == []
        assert not plain.sim.metrics.active
