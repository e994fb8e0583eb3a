"""Regression: losing the install-state reply must not fork the program.

The kernel-state transfer is addressed via the shell's *temporary*
logical-host id, which stops resolving the moment the install succeeds
(the id is swapped to the original).  If the "installed" reply packet is
then lost, the migration manager's retransmission must still find the
retained reply through duplicate suppression -- otherwise the manager
assumes the transfer failed and unfreezes the original copy while the
new copy is already running: a forked program.
"""

import pytest

from repro.cluster import build_cluster
from repro.cluster.monitor import ClusterMonitor
from repro.execution import ExecSpec, exec_program, wait_program
from repro.migration.migrateprog import migrate_program
from repro.workloads import standard_registry


class DropInstalledReplies:
    """Scripted loss: drop the first N reply packets carrying an
    ``installed`` message."""

    def __init__(self, n=3):
        self.remaining = n
        self.dropped = 0

    def drops(self, sim, packet) -> bool:
        if (
            self.remaining > 0
            and packet.kind == "reply"
            and getattr(packet.payload.get("message"), "kind", "") == "installed"
        ):
            self.remaining -= 1
            self.dropped += 1
            return True
        return False


def test_lost_install_reply_does_not_fork_the_program():
    loss = DropInstalledReplies(n=3)
    cluster = build_cluster(
        n_workstations=3, seed=9, registry=standard_registry(scale=0.5),
        loss=loss,
    )
    job = {}

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec("longsim", where="ws1"))
        job["pid"] = handle.pid
        code = yield from wait_program(ctx, handle)
        job["code"] = code

    cluster.spawn_session(cluster.workstations[0], session)
    while "pid" not in job and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    replies = []

    def migrator(ctx):
        reply = yield from migrate_program(job["pid"])
        replies.append(reply)

    cluster.spawn_session(cluster.workstations[0], migrator, name="mig")
    while not replies and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)

    # The replies were dropped, so retransmission had to recover them.
    assert loss.dropped >= 1
    assert replies[0]["ok"], replies[0].get("error")

    # Exactly one copy of the program exists, at the destination.
    monitor = ClusterMonitor(cluster)
    pid = job["pid"]
    hosting = [
        ws.name
        for ws in cluster.workstations
        if ws.kernel.find_pcb(pid) is not None
    ]
    assert len(hosting) == 1
    assert hosting[0] != "ws1"

    cluster.run(until_us=600_000_000)
    assert job.get("code") == 0
