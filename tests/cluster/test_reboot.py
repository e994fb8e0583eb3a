"""Workstation reboot semantics (paper §3.3: "failure of the program
should the original host fail or be rebooted" -- unless it migrated)."""

import pytest

from repro.cluster import build_cluster
from repro.cluster.monitor import ClusterMonitor
from repro.errors import SendTimeoutError
from repro.execution import ExecSpec, exec_program, wait_program
from repro.ipc.messages import Message
from repro.kernel.process import Send
from repro.migration.migrateprog import migrate_program
from repro.workloads import standard_registry


def make_world():
    cluster = build_cluster(n_workstations=3, seed=12,
                            registry=standard_registry(scale=0.3))
    job = {}

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec("longsim", where="ws1"))
        job["pid"] = handle.pid
        code = yield from wait_program(ctx, handle)
        job["code"] = code

    cluster.spawn_session(cluster.workstations[0], session)
    while "pid" not in job and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    return cluster, job


def test_reboot_kills_resident_programs():
    cluster, job = make_world()
    cluster.sim.strict = False
    cluster.reboot_workstation("ws1")
    cluster.run(until_us=120_000_000)
    # The program died with its host; the waiter's rendezvous is gone too.
    assert "code" not in job
    monitor = ClusterMonitor(cluster)
    assert monitor.host_of_lhid(job["pid"].logical_host_id) is None


def test_migrated_program_survives_source_reboot():
    cluster, job = make_world()
    replies = []

    def migrator(ctx):
        reply = yield from migrate_program(job["pid"])
        replies.append(reply)

    cluster.spawn_session(cluster.workstations[0], migrator, name="mig")
    while not replies and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    assert replies[0]["ok"]
    cluster.sim.strict = False
    cluster.reboot_workstation("ws1")
    cluster.run(until_us=600_000_000)
    assert job.get("code") == 0


def test_rebooted_host_serves_again():
    cluster, job = make_world()
    cluster.sim.strict = False
    cluster.reboot_workstation("ws1")
    cluster.run(until_us=cluster.sim.now + 1_000_000)
    outcome = {}

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec("tex", where="ws1"))
        outcome["pid"] = handle.pid
        code = yield from wait_program(ctx, handle)
        outcome["code"] = code

    cluster.spawn_session(cluster.workstations[0], session, name="again")
    cluster.run(until_us=600_000_000)
    assert outcome.get("code") == 0
    # And it answers candidate queries once more.
    assert cluster.pm("ws1").pcb.alive


def test_stale_pids_stop_resolving_after_reboot():
    cluster, job = make_world()
    cluster.sim.strict = False
    stale = job["pid"]
    cluster.reboot_workstation("ws1")
    caught = []

    def prober(ctx):
        try:
            yield Send(stale, Message("ping"))
        except SendTimeoutError:
            caught.append(True)

    cluster.spawn_session(cluster.workstations[0], prober, name="probe")
    cluster.run(until_us=120_000_000)
    assert caught == [True]


def test_reboot_preserves_address_and_name():
    cluster, job = make_world()
    cluster.sim.strict = False
    old_addr = cluster.station("ws1").address
    fresh = cluster.reboot_workstation("ws1")
    assert fresh.address == old_addr
    assert fresh.name == "ws1"
    assert cluster.station("ws1") is fresh
