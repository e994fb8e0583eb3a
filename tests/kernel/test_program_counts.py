"""``Kernel.program_counts``: the one load count a program manager's
reply is built from -- live program-priority processes, and how many of
them are remote."""

from repro.config import PAGE_SIZE
from repro.ipc import Message
from repro.kernel import Compute, Priority, Send
from repro.kernel.ids import local_kernel_server_group

from tests.helpers import BareCluster


def body():
    yield Compute(1_000_000)


def counts(station):
    """``program_counts()``, checked against the display summary."""
    kernel = station.kernel
    programs, remote = kernel.program_counts()
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


def test_crash_leaves_nothing_to_count():
    cluster = BareCluster(n=1)
    ws = cluster.stations[0]
    cluster.spawn_program(ws, body(), name="local")
    cluster.spawn_program(ws, body(), priority=Priority.REMOTE, name="remote")
    assert counts(ws) == (2, 1)
    ws.crash()
    assert counts(ws) == (0, 0)
