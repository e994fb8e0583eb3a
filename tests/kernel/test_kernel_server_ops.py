"""Tests for kernel-server operations exercised over IPC.

The kernel server is only reachable through messages (paper §6: a
process "cannot directly examine kernel data structures but must send a
message to the kernel"), so these tests drive every operation the way a
real program would.
"""

import pytest

from repro.config import PAGE_SIZE
from repro.ipc import Message
from repro.kernel import Compute, Delay, Priority, Send
from repro.kernel.ids import Pid, local_kernel_server_group

from tests.helpers import BareCluster


def ks_call(cluster, station, message, results):
    """Run a throwaway client that sends one KS request."""
    lh = station.kernel.create_logical_host()
    station.kernel.allocate_space(lh, 4096)

    def client():
        reply = yield Send(local_kernel_server_group(lh.lhid), message)
        results.append(reply)

    station.kernel.create_process(lh, client(), name="ks-client")


class TestQueries:
    def test_get_time_tracks_clock(self):
        cluster = BareCluster(n=1)
        results = []
        cluster.sim.run(until_us=5_000)
        ks_call(cluster, cluster.stations[0], Message("get-time"), results)
        cluster.run()
        assert results[0]["now_us"] >= 5_000

    def test_query_utilization(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]

        def burner():
            yield Compute(2_000_000)

        cluster.spawn_program(ws, burner(), name="burner")
        cluster.run(until_us=1_000_000)
        results = []
        ks_call(cluster, ws, Message("query-utilization"), results)
        cluster.run(until_us=2_000_000)
        assert results and 0.5 < results[0]["utilization"] <= 1.0
        assert results[0]["busy_us"] > 0

    def test_query_load_reports_memory(self):
        cluster = BareCluster(n=1)
        results = []
        ks_call(cluster, cluster.stations[0], Message("query-load"), results)
        cluster.run()
        assert results[0].kind == "load"
        assert 0 < results[0]["memory_free"] <= 2 * 1024 * 1024


class TestProcessOps:
    def test_set_priority(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]

        def victim():
            yield Delay(10**9)

        _, pcb = cluster.spawn_program(ws, victim(), name="victim")
        results = []
        ks_call(cluster, ws,
                Message("set-priority", pid=pcb.pid,
                        priority=int(Priority.BACKGROUND)),
                results)
        cluster.run(until_us=1_000_000)
        assert results[0].kind == "ok"
        assert pcb.priority == Priority.BACKGROUND

    def test_ops_on_missing_pid_error(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]
        ghost = Pid(0x10, 0x77)
        for op in ("destroy-process", "set-priority", "suspend", "resume",
                   "query-process"):
            results = []
            msg = Message(op, pid=ghost, priority=4)
            ks_call(cluster, ws, msg, results)
            cluster.run(until_us=cluster.sim.now + 2_000_000)
            assert results and results[0].kind == "ks-error", op


class TestFreezeOps:
    def test_remote_freeze_and_unfreeze(self):
        """A logical host can be frozen from another workstation through
        its kernel server."""
        cluster = BareCluster(n=2)
        a, b = cluster.stations
        progress = []

        def looper():
            while True:
                yield Compute(10_000)
                progress.append(cluster.sim.now)

        lh, pcb = cluster.spawn_program(b, looper(), name="looper")
        results = []

        def controller():
            reply = yield Send(local_kernel_server_group(lh.lhid),
                               Message("freeze", lhid=lh.lhid))
            results.append(reply.kind)
            yield Delay(1_000_000)
            count_during = len(progress)
            reply = yield Send(local_kernel_server_group(lh.lhid),
                               Message("unfreeze", lhid=lh.lhid))
            results.append(reply.kind)
            results.append(count_during)

        ctrl_lh = a.kernel.create_logical_host()
        a.kernel.allocate_space(ctrl_lh, 4096)
        a.kernel.create_process(ctrl_lh, controller(), name="ctrl")
        cluster.run(until_us=5_000_000)
        assert results[0] == "ok" and results[1] == "ok"
        frozen_count = results[2]
        assert len(progress) > frozen_count  # resumed after unfreeze

    def test_freeze_unknown_lh_errors(self):
        cluster = BareCluster(n=1)
        results = []
        ks_call(cluster, cluster.stations[0],
                Message("freeze", lhid=0x7777), results)
        cluster.run(until_us=2_000_000)
        assert results[0].kind == "ks-error"


class TestShellOps:
    def test_create_shell_builds_stubs(self):
        cluster = BareCluster(n=2)
        a, b = cluster.stations
        results = []

        def requester():
            reply = yield Send(
                local_kernel_server_group(b.system_lh.lhid),
                Message("create-shell",
                        spaces=[(PAGE_SIZE * 4, 0, 0, "s0")],
                        processes=[(1, 0, "stub")]),
            )
            results.append(reply)

        lh = a.kernel.create_logical_host()
        a.kernel.allocate_space(lh, 4096)
        a.kernel.create_process(lh, requester(), name="req")
        cluster.run(until_us=5_000_000)
        assert results[0].kind == "shell-created"
        shell = b.kernel.logical_hosts[results[0]["temp_lhid"]]
        assert shell.is_shell
        assert shell.find_process(1) is not None

    def test_create_shell_out_of_memory(self):
        cluster = BareCluster(n=2)
        a, b = cluster.stations
        results = []

        def requester():
            reply = yield Send(
                local_kernel_server_group(b.system_lh.lhid),
                Message("create-shell",
                        spaces=[(64 * 1024 * 1024, 0, 0, "huge")],
                        processes=[(1, 0, "stub")]),
            )
            results.append(reply)

        lh = a.kernel.create_logical_host()
        a.kernel.allocate_space(lh, 4096)
        a.kernel.create_process(lh, requester(), name="req")
        cluster.run(until_us=5_000_000)
        assert results[0].kind == "ks-error"
        # No half-built shell left behind.
        assert all(not lh2.is_shell for lh2 in b.kernel.logical_hosts.values())

    def test_install_state_without_shell_errors(self):
        cluster = BareCluster(n=2)
        a, b = cluster.stations
        results = []

        def requester():
            reply = yield Send(
                local_kernel_server_group(b.system_lh.lhid),
                Message("install-state", temp_lhid=0x5555,
                        bundle={"processes": [], "groups": {},
                                "transport": {"clients": [], "servers": []},
                                "lhid": 0x5555}),
            )
            results.append(reply)

        lh = a.kernel.create_logical_host()
        a.kernel.allocate_space(lh, 4096)
        a.kernel.create_process(lh, requester(), name="req")
        cluster.run(until_us=5_000_000)
        assert results[0].kind == "ks-error"

    def test_install_state_of_an_lhid_already_here_errors(self):
        """An earlier attempt's copy, installed but unacknowledged, is
        left alone: the second install is refused (not a kernel-server
        crash) and its shell is freed."""
        cluster = BareCluster(n=2)
        a, b = cluster.stations
        installed = b.kernel.create_logical_host()
        b.kernel.allocate_space(installed, 4096)
        results = []

        def requester():
            shell = yield Send(
                local_kernel_server_group(b.system_lh.lhid),
                Message("create-shell", spaces=[(PAGE_SIZE, 0, 0, "s0")],
                        processes=[(1, 0, "stub")]),
            )
            results.append(shell["temp_lhid"])
            reply = yield Send(
                local_kernel_server_group(b.system_lh.lhid),
                Message("install-state", temp_lhid=shell["temp_lhid"],
                        bundle={"processes": [], "groups": {},
                                "transport": {"clients": [], "servers": []},
                                "lhid": installed.lhid}),
            )
            results.append(reply)

        lh = a.kernel.create_logical_host()
        a.kernel.allocate_space(lh, 4096)
        a.kernel.create_process(lh, requester(), name="req")
        cluster.run(until_us=5_000_000)
        temp_lhid, reply = results
        assert reply.kind == "ks-error"
        assert not b.kernel.hosts_lhid(temp_lhid)
        assert b.kernel.logical_hosts[installed.lhid] is installed

    def test_destroy_lh_op(self):
        cluster = BareCluster(n=2)
        a, b = cluster.stations
        victim_lh = b.kernel.create_logical_host()
        b.kernel.allocate_space(victim_lh, 4096)
        results = []

        def requester():
            reply = yield Send(
                local_kernel_server_group(b.system_lh.lhid),
                Message("destroy-lh", lhid=victim_lh.lhid),
            )
            results.append(reply.kind)

        lh = a.kernel.create_logical_host()
        a.kernel.allocate_space(lh, 4096)
        a.kernel.create_process(lh, requester(), name="req")
        cluster.run(until_us=5_000_000)
        assert results == ["ok"]
        assert not b.kernel.hosts_lhid(victim_lh.lhid)
