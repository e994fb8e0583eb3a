"""Unit tests for cluster assembly, the owner model, and the monitor."""

import pytest

from repro.cluster import Owner, OwnerActivityModel, build_cluster
from repro.cluster.monitor import ClusterMonitor
from repro.errors import SimulationError
from repro.execution import ExecSpec, ProgramRegistry, exec_program
from repro.workloads import standard_registry


class TestBuilder:
    def test_builds_requested_topology(self):
        cluster = build_cluster(n_workstations=5, n_file_servers=2,
                                registry=ProgramRegistry())
        assert len(cluster.workstations) == 5
        assert len(cluster.server_machines) == 2
        assert len(cluster.file_servers) == 2
        assert len(cluster.name_servers) == 1
        assert len(cluster.displays) == 5
        assert len(cluster.program_managers) == 5

    def test_needs_at_least_one_of_each(self):
        with pytest.raises(SimulationError):
            build_cluster(n_workstations=0)
        with pytest.raises(SimulationError):
            build_cluster(n_file_servers=0)

    def test_station_lookup(self):
        cluster = build_cluster(n_workstations=2, registry=ProgramRegistry())
        assert cluster.station("ws1").name == "ws1"
        with pytest.raises(SimulationError):
            cluster.station("ws9")

    def test_every_kernel_knows_registry_and_file_server(self):
        cluster = build_cluster(n_workstations=3, registry=ProgramRegistry())
        fs_pid = cluster.file_servers[0].pcb.pid
        for machine in cluster.workstations + cluster.server_machines:
            assert machine.kernel.program_registry is cluster.registry
            assert machine.kernel.file_server_pid == fs_pid

    def test_unique_addresses(self):
        cluster = build_cluster(n_workstations=4, registry=ProgramRegistry())
        addrs = [ws.address for ws in cluster.workstations + cluster.server_machines]
        assert len(set(addrs)) == len(addrs)

    def test_context_has_standard_name_cache(self):
        cluster = build_cluster(n_workstations=2, registry=ProgramRegistry())
        seen = {}

        def session(ctx):
            seen["ctx"] = ctx
            yield from ()

        cluster.spawn_session(cluster.workstations[1], session)
        cluster.run(until_us=1_000_000)
        ctx = seen["ctx"]
        assert "file-server" in ctx.name_cache
        assert "name-server" in ctx.name_cache
        assert ctx.home == "ws1"
        assert ctx.sim is cluster.sim

    def test_idle_fraction_starts_high(self):
        cluster = build_cluster(n_workstations=3, registry=ProgramRegistry())
        cluster.run(until_us=5_000_000)
        assert cluster.idle_fraction() > 0.95


class TestOwner:
    def test_arrive_marks_station_active(self):
        cluster = build_cluster(n_workstations=1, registry=ProgramRegistry())
        owner = Owner(cluster.workstations[0])
        owner.arrive()
        assert cluster.workstations[0].owner_active
        assert owner.pcb is not None

    def test_depart_clears_flag_and_kills_editor(self):
        cluster = build_cluster(n_workstations=1, registry=ProgramRegistry())
        owner = Owner(cluster.workstations[0])
        pcb = owner.arrive()
        cluster.run(until_us=2_000_000)
        owner.depart()
        assert not cluster.workstations[0].owner_active
        assert not pcb.alive

    def test_editor_uses_modest_cpu(self):
        """The paper: workstations are >80% idle even at peak (most users
        are editing)."""
        cluster = build_cluster(n_workstations=1, registry=ProgramRegistry())
        owner = Owner(cluster.workstations[0])
        owner.arrive()
        cluster.run(until_us=20_000_000)
        busy_fraction = cluster.workstations[0].kernel.scheduler.busy_us / 20_000_000
        assert busy_fraction < 0.2

    def test_burst_latencies_recorded(self):
        cluster = build_cluster(n_workstations=1, registry=ProgramRegistry())
        owner = Owner(cluster.workstations[0])
        owner.arrive()
        cluster.run(until_us=10_000_000)
        assert len(owner.burst_latencies) > 5
        assert owner.mean_interference_us() >= 0

    def test_interference_window_filter(self):
        cluster = build_cluster(n_workstations=1, registry=ProgramRegistry())
        owner = Owner(cluster.workstations[0])
        owner.arrive()
        cluster.run(until_us=10_000_000)
        assert owner.worst_interference_us(since_us=10_000_000) == 0

    def test_activity_model_defaults(self):
        model = OwnerActivityModel()
        assert model.burst_us < model.think_us


class TestMonitor:
    def make_busy_cluster(self):
        cluster = build_cluster(n_workstations=3,
                                registry=standard_registry(scale=0.5))
        state = {}

        def session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("longsim", where="ws1"))
            state["pid"] = handle.pid

        cluster.spawn_session(cluster.workstations[0], session)
        while "pid" not in state and cluster.sim.peek() is not None:
            cluster.sim.run(until_us=cluster.sim.now + 100_000)
        return cluster, state

    def test_programs_listing(self):
        cluster, state = self.make_busy_cluster()
        monitor = ClusterMonitor(cluster)
        rows = monitor.programs()
        names = {row.name for row in rows}
        assert "longsim" in names
        remote_rows = [r for r in rows if r.remote]
        assert remote_rows and remote_rows[0].host == "ws1"

    def test_programs_filtered_by_host(self):
        cluster, state = self.make_busy_cluster()
        monitor = ClusterMonitor(cluster)
        assert all(r.host == "ws1" for r in monitor.programs(host="ws1"))
        assert monitor.programs(host="ws2") == []

    def test_find_program(self):
        cluster, state = self.make_busy_cluster()
        monitor = ClusterMonitor(cluster)
        row = monitor.find_program("longsim")
        assert row is not None and row.pid == state["pid"]
        assert monitor.find_program("nonesuch") is None

    def test_host_of_lhid(self):
        cluster, state = self.make_busy_cluster()
        monitor = ClusterMonitor(cluster)
        assert monitor.host_of_lhid(state["pid"].logical_host_id) == "ws1"
        assert monitor.host_of_lhid(0x7777) is None

    def test_loads(self):
        cluster, state = self.make_busy_cluster()
        monitor = ClusterMonitor(cluster)
        loads = monitor.loads()
        assert set(loads) == {"ws0", "ws1", "ws2"}
        assert loads["ws1"]["programs"] >= 1

    def test_total_packets_counts(self):
        cluster, state = self.make_busy_cluster()
        monitor = ClusterMonitor(cluster)
        assert monitor.total_packets() > 0

    def test_rows_mark_frozen_processes(self):
        cluster, state = self.make_busy_cluster()
        monitor = ClusterMonitor(cluster)
        kernel = cluster.station("ws1").kernel
        lh = kernel.logical_hosts[state["pid"].logical_host_id]
        row = monitor.find_program("longsim")
        assert row is not None and not row.frozen

        kernel.freeze_logical_host(lh)
        row = monitor.find_program("longsim")
        assert row.frozen
        # A frozen remote program keeps its remote flag and host.
        assert row.remote and row.host == "ws1"

        kernel.unfreeze_logical_host(lh)
        assert not monitor.find_program("longsim").frozen

    def test_rows_distinguish_remote_from_local(self):
        cluster, state = self.make_busy_cluster()
        holder = {}

        def local_session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("longsim"))  # home machine
            holder["pid"] = handle.pid

        cluster.spawn_session(cluster.workstations[2], local_session)
        while "pid" not in holder and cluster.sim.peek() is not None:
            cluster.sim.run(until_us=cluster.sim.now + 100_000)
        rows = {r.pid: r for r in ClusterMonitor(cluster).programs()}
        assert rows[state["pid"]].remote        # executed away from home
        assert not rows[holder["pid"]].remote   # executed at home
        assert rows[holder["pid"]].host == "ws2"

    def test_metrics_snapshot_via_monitor(self):
        cluster = build_cluster(n_workstations=3,
                                registry=standard_registry(scale=0.5))
        cluster.sim.metrics.enable()  # before any activity runs
        state = {}

        def session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("longsim", where="ws1"))
            state["pid"] = handle.pid

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=2_000_000)
        monitor = ClusterMonitor(cluster)
        snap = monitor.metrics()
        assert snap["cluster"]["sched.context_switches"] > 0
        assert snap["cluster"]["net.tx_packets"] == monitor.total_packets()
        assert snap["per_host"]["ws1"]["ipc.sends"] > 0
        assert "sched.context_switches" in monitor.render_metrics()
