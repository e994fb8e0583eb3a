#!/usr/bin/env python
"""Network-transparent debugging (paper §6).

"Even the V debugger can debug local and remote programs with no change,
using the conventional V IPC primitives for interaction with the process
being debugged."

A simulation job runs on ws1.  A debugger on ws0 attaches (suspends) it,
inspects its kernel state and memory, and detaches.  Then the job is
*migrated* to another machine and the very same debug session keeps
working -- the session's only handle is the pid, and pids survive
migration.

Run:  python examples/remote_debugging.py
"""

from repro.cluster import build_cluster
from repro.cluster.monitor import ClusterMonitor
from repro.execution import ExecSpec, exec_program
from repro.kernel.process import Delay
from repro.migration.migrateprog import migrate_program
from repro.services import DebugSession
from repro.workloads import standard_registry


def main():
    cluster = build_cluster(n_workstations=3, seed=19,
                            registry=standard_registry(scale=0.5))
    monitor = ClusterMonitor(cluster)
    holder = {}

    def launcher(ctx):
        handle = yield from exec_program(ctx, ExecSpec("longsim", where="ws1"))
        holder["pid"] = handle.pid

    cluster.spawn_session(cluster.workstations[0], launcher)
    while "pid" not in holder and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    target = holder["pid"]
    log = []

    def debugger(ctx):
        session = DebugSession(target)
        snap = yield from session.inspect()
        host = monitor.host_of_lhid(target.logical_host_id)
        log.append(f"[t={ctx.sim.now/1e6:5.2f}s] target {snap.name} on {host}: "
                   f"{snap.state}, {snap.cpu_used_us/1000:.0f} ms CPU used")
        yield from session.attach()
        pages = yield from session.read_pages([0, 1, 2, 3])
        log.append(f"[t={ctx.sim.now/1e6:5.2f}s] attached; first pages: "
                   f"versions {[p.version for p in pages]}")
        yield from session.detach()
        log.append(f"[t={ctx.sim.now/1e6:5.2f}s] detached; waiting for the "
                   "migration...")
        while "migrated" not in holder:
            yield Delay(200_000)
        snap = yield from session.inspect()
        host = monitor.host_of_lhid(target.logical_host_id)
        log.append(f"[t={ctx.sim.now/1e6:5.2f}s] SAME session, target now on "
                   f"{host}: {snap.state}, {snap.cpu_used_us/1000:.0f} ms CPU")
        yield from session.attach()
        snap = yield from session.inspect()
        log.append(f"[t={ctx.sim.now/1e6:5.2f}s] re-attached after migration: "
                   f"{snap.state}")
        yield from session.detach()

    cluster.spawn_session(cluster.workstations[0], debugger, name="debugger")

    def migrator(ctx):
        yield Delay(3_000_000)
        reply = yield from migrate_program(target)
        holder["migrated"] = reply
        log.append(f"[t={ctx.sim.now/1e6:5.2f}s] (migrated to "
                   f"{reply.get('dest')}, frozen "
                   f"{reply['stats'].freeze_us/1000:.0f} ms)")

    cluster.spawn_session(cluster.workstations[0], migrator, name="mig")
    cluster.run(until_us=60_000_000)

    print("=== debugging a program that migrates mid-session ===\n")
    for line in log:
        print(" ", line)
    print("\nno part of the debugger knows (or needs to know) where the "
          "target runs:\nevery operation is a kernel-server request or "
          "CopyFrom addressed at the pid.")


if __name__ == "__main__":
    main()
