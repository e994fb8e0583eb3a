"""``Kernel.program_counts``: the one load count a program manager's
reply is built from -- live program-priority processes, and how many of
them are remote."""

import pytest

from repro.config import PAGE_SIZE
from repro.faults.campaign import chaos_scenario
from repro.ipc import Message
from repro.kernel import Compute, Kernel, Priority, Send
from repro.kernel.ids import local_kernel_server_group
from repro.parallel.scenarios import migration_scenario
from repro.workloads.job_storm import job_storm_scenario

from tests.helpers import BareCluster


def body():
    yield Compute(1_000_000)


def _walk(kernel):
    """The count by a pass over every hosted process."""
    programs = remote = 0
    for lh in kernel.logical_hosts.values():
        for pcb in lh.processes.values():
            if pcb.priority >= Priority.LOCAL and pcb.alive:
                programs += 1
                remote += pcb.priority == Priority.REMOTE
    return programs, remote


def counts(station):
    """``program_counts()``, checked against the walk and the display
    summary."""
    kernel = station.kernel
    programs, remote = kernel.program_counts()
    assert (programs, remote) == _walk(kernel)
    summary = kernel.load_summary()
    assert (summary["programs"], summary["remote"]) == (programs, remote)
    return programs, remote


def test_server_priority_processes_are_not_counted():
    cluster = BareCluster(n=1)
    ws = cluster.stations[0]
    assert ws.kernel.kernel_server_pcb.priority == Priority.SERVER
    cluster.spawn_program(ws, body(), priority=Priority.SERVER, name="srv")
    assert counts(ws) == (0, 0)


def test_local_and_remote_programs_are_counted():
    cluster = BareCluster(n=1)
    ws = cluster.stations[0]
    cluster.spawn_program(ws, body(), priority=Priority.LOCAL, name="local")
    assert counts(ws) == (1, 0)
    cluster.spawn_program(ws, body(), priority=Priority.REMOTE, name="remote")
    assert counts(ws) == (2, 1)


def test_migration_shell_stubs_count_as_remote():
    cluster = BareCluster(n=2)
    a, b = cluster.stations
    replies = []

    def requester():
        replies.append((yield Send(
            local_kernel_server_group(b.system_lh.lhid),
            Message("create-shell", spaces=[(PAGE_SIZE * 4, 0, 0, "s0")],
                    processes=[(1, 0, "p1"), (2, 0, "p2")]),
        )))

    lh = a.kernel.create_logical_host()
    a.kernel.allocate_space(lh, 4096)
    a.kernel.create_process(lh, requester(), name="req")
    cluster.run(until_us=5_000_000)
    assert replies[0].kind == "shell-created"
    shell = b.kernel.logical_hosts[replies[0]["temp_lhid"]]
    assert all(p.name.startswith("stub:") for p in shell.processes.values())
    assert counts(b) == (2, 2)


def test_destroyed_processes_leave_the_count():
    cluster = BareCluster(n=1)
    ws = cluster.stations[0]
    kernel = ws.kernel
    _, local = cluster.spawn_program(ws, body(), name="local")
    lh, _ = cluster.spawn_program(ws, body(), priority=Priority.REMOTE,
                                  name="remote")
    assert counts(ws) == (2, 1)
    kernel.destroy_process(local)
    assert counts(ws) == (1, 1)
    kernel.destroy_logical_host(lh, migrated=True)
    assert counts(ws) == (0, 0)


def test_priority_changes_move_the_count():
    cluster = BareCluster(n=1)
    ws = cluster.stations[0]
    _, pcb = cluster.spawn_program(ws, body(), name="prog")
    assert counts(ws) == (1, 0)
    ws.kernel.set_priority(pcb, Priority.REMOTE)
    assert counts(ws) == (1, 1)
    ws.kernel.set_priority(pcb, Priority.SERVER)
    assert counts(ws) == (0, 0)
    ws.kernel.set_priority(pcb, Priority.LOCAL)
    assert counts(ws) == (1, 0)


def test_crash_leaves_nothing_to_count():
    cluster = BareCluster(n=1)
    ws = cluster.stations[0]
    cluster.spawn_program(ws, body(), name="local")
    cluster.spawn_program(ws, body(), priority=Priority.REMOTE, name="remote")
    assert counts(ws) == (2, 1)
    ws.crash()
    assert counts(ws) == (0, 0)


# -- the kept count against a full walk, after every event ---------------


class _CountAudit:
    """Sits in the simulator's profiler slot, whose hook runs after every
    event, and checks each kernel's kept count against the walk."""

    def __init__(self):
        self.kernels = []
        self.events = 0

    def _account(self, fn, seconds):
        self.events += 1
        for kernel in self.kernels:
            assert kernel.program_counts() == _walk(kernel), (kernel.name, fn)


@pytest.fixture
def audit(monkeypatch):
    """Audit every kernel built while the test runs."""
    audit = _CountAudit()
    init = Kernel.__init__

    def audited_init(self, sim, *args, **kwargs):
        init(self, sim, *args, **kwargs)
        audit.kernels.append(self)
        sim._profiler = audit

    monkeypatch.setattr(Kernel, "__init__", audited_init)
    return audit


@pytest.mark.parametrize("policy", ["first_responder", "random_k"])
def test_kept_count_matches_walk_through_a_job_storm(audit, policy):
    result = job_storm_scenario(
        {"workstations": 8, "jobs": 16, "policy": policy}, seed=3)
    assert result["completed"] == 16
    assert audit.events > 1_000


def test_kept_count_matches_walk_through_a_crashing_chaos_unit(audit):
    # The crash schedule crashes and reboots ws3 while the echo server
    # migrates off ws1.
    result = chaos_scenario({"schedule": "crash", "messages": 10}, seed=5)
    assert result["invariants_ok"]
    assert [event for _, _, event in result["crash_log"]] == ["crash", "reboot"]
    assert audit.events >= result["events_checked"] > 0


def test_kept_count_matches_walk_through_a_migration(audit):
    result = migration_scenario({"program": "tex", "settle_ms": 300}, seed=1)
    assert result["success"]
    assert audit.events > 1_000
