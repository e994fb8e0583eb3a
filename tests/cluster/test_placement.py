"""Host selection: the probe/admission protocol and the two ``@ *``
policies, the paper's multicast and RandomK probing of the live
program-manager roster."""

import pytest

from repro.cluster.placement import (
    FirstResponder,
    HostDigest,
    RandomK,
    Selection,
    _fit_key,
    make_policy,
)
from repro.execution import ExecSpec, exec_program, wait_program
from repro.ipc.messages import Message
from repro.kernel.process import Delay, Send
from repro.services.program_manager import AcceptPolicy
from repro.workloads import standard_registry

from tests.helpers import make_cluster


def digest(host, load=0, memory_free=1_000_000, ts=0, pm=None):
    return HostDigest(host=host, pm=pm, load=load, remote=0,
                      memory_free=memory_free, ts_us=ts)


def test_digest_from_malformed_fields_is_none():
    assert HostDigest.from_fields({}) is None
    assert HostDigest.from_fields({"host": "ws1", "load": "not-a-number",
                                   "memory_free": 1, "ts": 0,
                                   "pm": None}) is None


def test_best_fit_orders_by_load_then_memory_then_name():
    """RandomK places on the ``_fit_key``-least willing probe: least
    load, then most free memory, then name (a total order)."""
    probes = [digest("ws3", load=1, memory_free=900),
              digest("ws2", load=0, memory_free=100),
              digest("ws1", load=0, memory_free=900),
              digest("ws0", load=0, memory_free=900)]
    assert [d.host for d in sorted(probes, key=_fit_key)] == [
        "ws0", "ws1", "ws2", "ws3"]


def test_make_policy_coercions():
    assert isinstance(make_policy(None), FirstResponder)
    assert isinstance(make_policy("random_k"), RandomK)
    assert isinstance(make_policy(RandomK), RandomK)
    policy = FirstResponder()
    assert make_policy(policy) is policy
    with pytest.raises(ValueError):
        make_policy("best_fit")
    with pytest.raises(TypeError):
        make_policy(42)


# ------------------------------------------------------------- wire protocol

def test_probe_load_always_replies_even_when_unwilling():
    """A unicast probe must never be declined (that would strand the
    prober until its send timeout), only answered unwilling."""
    cluster = make_cluster(2, full=True, registry=standard_registry(scale=0.3))
    replies = []

    def session(ctx):
        pm = cluster.pm("ws1").pcb.pid
        reply = yield Send(pm, Message("probe-load"))
        replies.append(reply)
        # A probe demanding more memory than the machine has: still a
        # reply, just not a willing one.
        reply = yield Send(pm, Message("probe-load",
                                       memory_needed=1 << 30))
        replies.append(reply)

    cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=5_000_000)
    assert len(replies) == 2
    assert replies[0].kind == "load-digest" and replies[0]["willing"]
    assert replies[1].kind == "load-digest" and not replies[1]["willing"]
    assert HostDigest.from_fields(replies[1]["digest"]) is not None


def test_admission_checked_create_declines_when_full():
    """``create-program`` with ``admission=True`` is re-validated by the
    target and politely declined when its accept policy refuses."""
    cluster = make_cluster(2, full=True, registry=standard_registry(scale=0.3))
    replies = []

    def session(ctx):
        pm = cluster.pm("ws1").pcb.pid
        reply = yield Send(pm, Message(
            "create-program", program="cc68", args=(), remote=True,
            lhid=None, admission=True, memory_needed=1 << 30))
        replies.append(reply)

    cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=5_000_000)
    assert replies and replies[0].kind == "exec-declined"
    assert replies[0]["host"] == "ws1"
    assert cluster.pm("ws1").exec_declines == 1


# ----------------------------------------------------------- placed execution

def run_placed(cluster, policy, delay_us=0, before=None):
    """One ``@ *`` exec of cc68 under ``policy`` from a session on ws0,
    ``delay_us`` after the session starts, run to its exit; ``before``
    runs once the session holds its context.  Returns (handle, exit
    code)."""
    done = []

    def session(ctx):
        if delay_us:
            yield Delay(delay_us)
        handle = yield from exec_program(ctx, ExecSpec(
            "cc68", args=("x.c",), where="*", policy=policy))
        code = yield from wait_program(ctx, handle)
        done.append((handle, code))

    cluster.spawn_session(cluster.workstations[0], session)
    sim = cluster.sim
    if before is not None:
        sim.run(until_us=sim.now + delay_us // 2)
        before()
    deadline = sim.now + 120_000_000
    while not done and sim.peek() is not None and sim.now < deadline:
        sim.run(until_us=sim.now + 500_000)
    assert done
    return done[0]


def owner_busy_ws0_cluster(n):
    """ws0 (the requester's host) is in its owner's use and takes no
    remote work, so no selection can land on the requester itself."""
    cluster = make_cluster(n, full=True, registry=standard_registry(scale=0.3))
    cluster.workstations[0].owner_active = True
    cluster.pm("ws0").policy = AcceptPolicy(accept_when_owner_active=False)
    return cluster


def test_randomk_stale_probe_is_declined_then_retried():
    """A probe said ws1 was willing, but ws1 filled up before the
    ``create-program`` arrived: admission control declines it and the
    retry probes again and lands elsewhere."""
    cluster = make_cluster(3, full=True, registry=standard_registry(scale=0.3))
    started = []

    def loader(ctx):
        for _ in range(3):
            started.append((yield from exec_program(
                ctx, ExecSpec("longsim", where="ws1"))))

    cluster.spawn_session(cluster.workstations[0], loader, name="loader")
    while len(started) < 3 and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    assert not cluster.pm("ws1").policy.willing(cluster.station("ws1"), 0)

    class StaleFirstProbe(RandomK):
        def select(self, ctx, spec, attempt, exclude):
            if attempt == 0:
                return Selection(pm=cluster.pm("ws1").pcb.pid, host="ws1")
            return (yield from super().select(ctx, spec, attempt, exclude))

    handle, code = run_placed(cluster, StaleFirstProbe())
    assert code == 0
    assert handle.host in ("ws0", "ws2")
    assert handle.attempts == 2
    assert cluster.pm("ws1").exec_declines == 1


def test_randomk_create_timeout_then_retried():
    """The probed host crashes before ``create-program`` reaches it:
    the send times out, the host is excluded, and the retry lands on a
    live one."""
    cluster = owner_busy_ws0_cluster(3)
    cluster.sim.strict = False
    crashed = []

    class CrashesItsFirstChoice(RandomK):
        def select(self, ctx, spec, attempt, exclude):
            selection = yield from super().select(ctx, spec, attempt, exclude)
            if attempt == 0:
                crashed.append(selection.host)
                cluster.station(selection.host).kernel.crash()
            return selection

    handle, code = run_placed(cluster, CrashesItsFirstChoice())
    assert code == 0
    assert crashed and crashed[0] in ("ws1", "ws2")
    assert handle.host in ("ws1", "ws2") and handle.host != crashed[0]
    assert handle.attempts == 2


def test_randomk_falls_back_to_multicast_when_no_probed_host_is_willing():
    """Only ws3 of four hosts is willing and RandomK(k=2) does not
    sample it (at seed 0): both probes answer unwilling, so the paper's
    multicast runs and finds ws3."""
    cluster = owner_busy_ws0_cluster(4)
    for name in ("ws1", "ws2"):
        cluster.station(name).owner_active = True
        cluster.pm(name).policy = AcceptPolicy(accept_when_owner_active=False)
    cluster.sim.metrics.enable()

    handle, code = run_placed(cluster, RandomK(k=2))
    assert code == 0
    assert handle.host == "ws3"
    assert cluster.sim.metrics.get("placement.fallbacks").value == 1
    assert cluster.sim.metrics.get("placement.probes").value == 2


def test_randomk_probes_a_rebooted_hosts_fresh_manager():
    """The session's context is made before ws1 reboots; RandomK reads
    the live roster, so its probe reaches ws1's fresh manager, not the
    dead one's pid."""
    cluster = owner_busy_ws0_cluster(3)
    cluster.sim.strict = False
    old_pm = cluster.pm("ws1")

    handle, code = run_placed(
        cluster, RandomK(k=3), delay_us=1_000_000,
        before=lambda: cluster.reboot_workstation("ws1"))
    fresh_pm = cluster.pm("ws1")
    assert fresh_pm is not old_pm
    assert code == 0
    assert fresh_pm.selection_queries == 1
    assert old_pm.selection_queries == 0
    assert handle.attempts == 1
