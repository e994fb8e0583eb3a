"""The paper's §3.3 residual-dependency scenario, end to end.

"The program may have accessed files on the original host workstation.
After the program has been migrated, the program continues to have
access to those files, by virtue of V's network-transparent IPC.
However, this use imposes a continued load on the original host and
results in failure of the program should the original host fail...
With our current use of diskless workstations, file migration is not
required."

Reproduced both ways: a program using the *global* file server migrates
with no residual tie and survives the old host's death; a program bound
to a file server running *on its original workstation* keeps working
after migration (network transparency!) but is flagged by the auditor
and dies with the old host.
"""

import pytest

from repro.cluster import build_cluster
from repro.errors import SendTimeoutError
from repro.execution import ExecSpec, ProgramImage, exec_program
from repro.ipc.messages import Message
from repro.kernel.process import Compute, Delay, Send
from repro.migration.migrateprog import migrate_program
from repro.migration.residual import residual_dependencies
from repro.services.file_server import install_file_server
from repro.workloads import standard_registry


def temp_file_program(fs_pid_holder, outcomes):
    """Writes a temp file, computes, then reads the file back -- the
    paper's written-and-closed-then-read-later pattern."""

    def body(ctx):
        fs = fs_pid_holder["pid"] if fs_pid_holder else ctx.server("file-server")
        yield Send(fs, Message("write-file", path="/tmp/scratch", nbytes=8192))
        for _ in range(40):
            yield Compute(100_000)
            yield Delay(100_000)
        try:
            reply = yield Send(fs, Message("read-file", path="/tmp/scratch"))
            outcomes.append(("read", reply.kind))
        except SendTimeoutError:
            outcomes.append(("read", "timeout"))
        return 0

    return body


def build(fs_holder, outcomes, local_fs: bool):
    cluster = build_cluster(n_workstations=3, seed=4,
                            registry=standard_registry(scale=0.3))
    if local_fs:
        # The anti-pattern: a file server co-resident on the execution
        # workstation (ws1).
        server = install_file_server(cluster.workstations[1],
                                     cluster.registry, name="local-fs")
        fs_holder["pid"] = server.pcb.pid
    cluster.registry.register(ProgramImage(
        name="scratcher", image_bytes=40 * 1024, space_bytes=96 * 1024,
        code_bytes=32 * 1024, body_factory=temp_file_program(
            fs_holder if local_fs else None, outcomes),
    ))
    holder = {}

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec("scratcher", where="ws1"))
        holder["pid"] = handle.pid

    cluster.spawn_session(cluster.workstations[0], session)
    while "pid" not in holder and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    return cluster, holder


def migrate(cluster, holder):
    replies = []

    def migrator(ctx):
        reply = yield from migrate_program(holder["pid"])
        replies.append(reply)

    cluster.spawn_session(cluster.workstations[0], migrator, name="mig")
    while not replies and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    assert replies[0]["ok"], replies[0].get("error")
    return replies[0]


class TestGlobalFileServer:
    def test_no_dependency_and_survives_old_host_death(self):
        outcomes = []
        cluster, holder = build({}, outcomes, local_fs=False)
        pid = holder["pid"]
        lh = cluster.workstations[1].kernel.logical_hosts[pid.logical_host_id]
        # Audit before migrating: nothing ties the program to ws1.
        assert residual_dependencies(lh, cluster.workstations[1]) == []
        migrate(cluster, holder)
        cluster.workstations[1].crash()
        cluster.sim.strict = False
        cluster.run(until_us=600_000_000)
        assert ("read", "fs-ok") in outcomes

    def test_file_contents_follow_because_they_never_moved(self):
        outcomes = []
        cluster, holder = build({}, outcomes, local_fs=False)
        migrate(cluster, holder)
        cluster.run(until_us=600_000_000)
        # The file is still on the (global) file server, size intact.
        fs = cluster.file_servers[0]
        assert fs.files["/tmp/scratch"].size_bytes == 8192


class TestLocalFileServer:
    def test_auditor_flags_the_dependency(self):
        fs_holder = {}
        outcomes = []
        cluster, holder = build(fs_holder, outcomes, local_fs=True)
        pid = holder["pid"]
        cluster.run(until_us=cluster.sim.now + 1_000_000)
        lh = cluster.workstations[1].kernel.logical_hosts[pid.logical_host_id]
        deps = residual_dependencies(lh, cluster.workstations[1])
        assert any(d.pid == fs_holder["pid"] for d in deps)

    def test_transparent_access_continues_after_migration(self):
        """The paper: the migrated program *continues to have access* to
        the old host's files -- the dependency is a liability, not an
        immediate failure."""
        fs_holder = {}
        outcomes = []
        cluster, holder = build(fs_holder, outcomes, local_fs=True)
        migrate(cluster, holder)
        cluster.run(until_us=600_000_000)
        assert ("read", "fs-ok") in outcomes

    def test_old_host_death_breaks_the_program(self):
        fs_holder = {}
        outcomes = []
        cluster, holder = build(fs_holder, outcomes, local_fs=True)
        migrate(cluster, holder)
        cluster.workstations[1].crash()
        cluster.sim.strict = False
        cluster.run(until_us=600_000_000)
        assert ("read", "timeout") in outcomes
