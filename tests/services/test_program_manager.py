"""Unit tests for the program manager's policies and bookkeeping."""

import pytest

from repro.cluster import build_cluster
from repro.execution import ExecSpec, exec_program, run_program, wait_program
from repro.execution.api import select_candidate_host
from repro.ipc.messages import Message
from repro.kernel.process import Send
from repro.services.program_manager import AcceptPolicy
from repro.workloads import standard_registry


def make_cluster(n=3, scale=0.1, **kwargs):
    return build_cluster(n_workstations=n, registry=standard_registry(scale=scale),
                         **kwargs)


class TestAcceptPolicy:
    def test_willing_by_default(self):
        cluster = make_cluster()
        policy = AcceptPolicy()
        assert policy.willing(cluster.workstations[0], 64 * 1024)

    def test_memory_threshold(self):
        cluster = make_cluster()
        policy = AcceptPolicy(min_free_memory=10**9)
        assert not policy.willing(cluster.workstations[0], 0)

    def test_process_count_threshold(self):
        cluster = make_cluster()
        policy = AcceptPolicy(max_program_processes=0)
        assert not policy.willing(cluster.workstations[0], 0)

    def test_owner_active_refusal(self):
        cluster = make_cluster()
        ws = cluster.workstations[0]
        policy = AcceptPolicy(accept_when_owner_active=False)
        assert policy.willing(ws, 0)
        ws.owner_active = True
        assert not policy.willing(ws, 0)

    def test_owner_active_accepted_by_default(self):
        cluster = make_cluster()
        ws = cluster.workstations[0]
        ws.owner_active = True
        assert AcceptPolicy().willing(ws, 0)


class RecordingPolicy(AcceptPolicy):
    """An accept policy that notes, per host, the load count each
    decision judged and the verdict."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.judged = {}

    def willing(self, workstation, memory_needed, programs=None):
        verdict = super().willing(workstation, memory_needed, programs)
        self.judged[workstation.name] = (programs, verdict)
        return verdict


def candidate_query(n, loaded, policy):
    """Start ``loaded`` long-running programs on ws1, then multicast one
    candidate query from a session on ws0; returns (cluster, reply)."""
    cluster = make_cluster(n=n, accept_policy=policy)
    replies = []

    def session(ctx):
        for _ in range(loaded):
            yield from exec_program(ctx, ExecSpec("longsim", where="ws1"))
        replies.append((yield from select_candidate_host()))

    cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=5_000_000)
    assert len(replies) == 1
    return cluster, replies[0]


class TestCandidateReply:
    def test_digest_load_is_the_count_willing_judged(self):
        policy = RecordingPolicy()
        cluster, reply = candidate_query(2, 1, policy)
        programs, verdict = policy.judged[reply["host"]]
        assert verdict
        # ws0 runs the session, ws1 the longsim: either way one program.
        assert programs == 1
        assert reply["load"] == programs

    def test_host_at_max_program_processes_declines(self):
        policy = RecordingPolicy(max_program_processes=2)
        cluster, reply = candidate_query(3, 2, policy)
        assert policy.judged["ws1"] == (2, False)
        pm = cluster.pm("ws1")
        assert pm.selection_queries == 1
        assert pm.candidate_replies == 0
        assert reply["host"] != "ws1"


class TestProgramRecords:
    def test_created_programs_are_recorded(self):
        cluster = make_cluster()

        def session(ctx):
            yield from run_program(ctx, ExecSpec("tex"))

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=60_000_000)
        pm = cluster.pm("ws0")
        records = [r for r in pm.records.values() if r.name == "tex"]
        assert len(records) == 1
        assert records[0].exited
        assert records[0].exit_code == 0

    def test_exited_program_lh_is_reaped(self):
        cluster = make_cluster()
        seen = {}

        def session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("tex"))
            seen["pid"] = handle.pid
            yield from wait_program(ctx, handle)

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=60_000_000)
        lhid = seen["pid"].logical_host_id
        assert not cluster.workstations[0].kernel.hosts_lhid(lhid)

    def test_memory_returns_after_reap(self):
        cluster = make_cluster()
        ws = cluster.workstations[0]
        free_before = ws.kernel.memory_free

        def session(ctx):
            yield from run_program(ctx, ExecSpec("tex"))

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=60_000_000)
        # Session lh remains (64 KB); program memory was released.
        assert ws.kernel.memory_free >= free_before - 64 * 1024


class TestPmOps:
    def test_query_programs_rows(self):
        cluster = make_cluster()
        rows_seen = []

        def session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("longsim", where="ws1"))
            reply = yield Send(handle.origin_pm, Message("query-programs"))
            rows_seen.extend(reply["rows"])

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=30_000_000)
        assert any(r["name"] == "longsim" and r["remote"] for r in rows_seen)

    def test_kill_program_releases_waiters(self):
        cluster = make_cluster()
        outcome = {}

        def session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("longsim", where="ws1"))
            outcome["pid"] = handle.pid
            from repro.kernel.process import Delay

            yield Delay(1_000_000)  # let the waiter register first
            yield Send(handle.origin_pm, Message("kill-program", pid=handle.pid))
            outcome["killed"] = True

        def waiter(ctx):
            while "pid" not in outcome:
                from repro.kernel.process import Delay

                yield Delay(100_000)
            code = yield from wait_program(ctx, outcome["pid"])
            outcome["code"] = code

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.spawn_session(cluster.workstations[0], waiter, name="waiter")
        cluster.run(until_us=60_000_000)
        assert outcome.get("killed")
        assert outcome.get("code") == -1

    def test_suspend_stops_cpu_accumulation(self):
        cluster = make_cluster()
        state = {}

        def session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("longsim", where="ws1"))
            state["pid"] = handle.pid
            from repro.kernel.process import Delay

            yield Delay(2_000_000)
            yield Send(handle.origin_pm, Message("suspend-program", pid=handle.pid))
            state["suspended_at"] = ctx.sim.now

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=10_000_000)
        pcb = cluster.workstations[1].kernel.find_pcb(state["pid"])
        cpu_at_suspend = pcb.cpu_used_us
        cluster.run(until_us=20_000_000)
        assert pcb.cpu_used_us == cpu_at_suspend

    def test_resume_restarts_execution(self):
        cluster = make_cluster()
        state = {}

        def session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("longsim", where="ws1"))
            state["pid"] = handle.pid
            from repro.kernel.process import Delay

            yield Delay(2_000_000)
            yield Send(handle.origin_pm, Message("suspend-program", pid=handle.pid))
            yield Delay(2_000_000)
            yield Send(handle.origin_pm, Message("resume-program", pid=handle.pid))

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=8_000_000)
        pcb = cluster.workstations[1].kernel.find_pcb(state["pid"])
        cpu_before = pcb.cpu_used_us
        cluster.run(until_us=12_000_000)
        assert pcb.cpu_used_us > cpu_before

    def test_unknown_op_replies_error(self):
        cluster = make_cluster()
        got = []

        def session(ctx):
            reply = yield Send(
                cluster.pm("ws0").pcb.pid, Message("defragment-disk")
            )
            got.append(reply.kind)

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=10_000_000)
        assert got == ["pm-error"]

    def test_create_env_and_destroy_env(self):
        cluster = make_cluster()
        got = []

        def session(ctx):
            pm_pid = cluster.pm("ws1").pcb.pid
            created = yield Send(pm_pid, Message("create-env", space_bytes=32768))
            got.append(created.kind)
            destroyed = yield Send(pm_pid, Message("destroy-env",
                                                   lhid=created["lhid"]))
            got.append(destroyed.kind)

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=10_000_000)
        assert got == ["env-created", "ok"]

    def test_out_of_memory_creation_fails_cleanly(self):
        cluster = make_cluster()
        got = []

        def session(ctx):
            pm_pid = cluster.pm("ws1").pcb.pid
            reply = yield Send(pm_pid, Message("create-env", space_bytes=10**9))
            got.append(reply.kind)

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=10_000_000)
        assert got == ["pm-error"]

    def test_lhids_listing_helpers(self):
        cluster = make_cluster()
        state = {}

        def session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("longsim", where="ws1"))
            state["pid"] = handle.pid

        cluster.spawn_session(cluster.workstations[0], session)
        while "pid" not in state and cluster.sim.peek() is not None:
            cluster.sim.run(until_us=cluster.sim.now + 100_000)
        cluster.run(until_us=cluster.sim.now + 500_000)  # still mid-run
        pm = cluster.pm("ws1")
        assert state["pid"].logical_host_id in pm.remote_program_lhids()
        assert state["pid"].logical_host_id in pm.program_lhids()


class TestSystemHostProtection:
    def _ops_against(self, cluster, make_msg):
        got = []

        def session(ctx):
            reply = yield Send(cluster.pm("ws1").pcb.pid, make_msg())
            got.append(reply)

        cluster.spawn_session(cluster.workstations[0], session, name="attacker")
        cluster.run(until_us=20_000_000)
        return got[0]

    def test_cannot_kill_the_kernel_server_host(self):
        from repro.kernel.ids import Pid

        cluster = make_cluster()
        ks_pid = cluster.workstations[1].kernel_server_pid
        reply = self._ops_against(
            cluster, lambda: Message("kill-program", pid=ks_pid)
        )
        assert reply.kind == "pm-error"
        assert cluster.workstations[1].kernel.kernel_server_pcb.alive

    def test_cannot_destroy_env_of_a_service(self):
        cluster = make_cluster()
        display_lhid = (
            cluster.displays["ws1"].pcb.logical_host.lhid
        )
        reply = self._ops_against(
            cluster, lambda: Message("destroy-env", lhid=display_lhid)
        )
        assert reply.kind == "pm-error"
        assert cluster.displays["ws1"].pcb.alive

    def test_cannot_migrate_the_program_manager(self):
        cluster = make_cluster()
        pm_pid = cluster.pm("ws1").pcb.pid
        reply = self._ops_against(
            cluster,
            lambda: Message("migrate-out", pid=pm_pid,
                            destroy_if_stranded=False, dest_pm=None,
                            max_attempts=1),
        )
        assert reply.kind == "pm-error"
        assert "system host" in reply["error"]
