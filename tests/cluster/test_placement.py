"""The placement plane: host-state caches, piggy-backed digests, the
probe/admission protocol, and the pluggable ``@ *`` policies."""

from types import SimpleNamespace

import pytest

from repro.cluster.placement import (
    CachedBestFit,
    FirstResponder,
    HostDigest,
    HostStateCache,
    PlacementPolicy,
    RandomK,
    make_policy,
)
from repro.errors import ExecutionError
from repro.execution import ExecSpec, exec_program, wait_program
from repro.ipc.messages import Message
from repro.kernel.process import Send
from repro.sim import Simulator
from repro.workloads import standard_registry

from tests.helpers import make_cluster


def digest(host, load=0, memory_free=1_000_000, ts=0, pm=None):
    return HostDigest(host=host, pm=pm, load=load, remote=0, ready=0,
                      memory_free=memory_free, ts_us=ts)


def bare_cache(**kwargs):
    """A cache with no cluster behind it -- exercises the passive side."""
    sim = Simulator(seed=0)
    return HostStateCache(
        SimpleNamespace(sim=sim, program_managers={}), "ws0", **kwargs), sim


# ------------------------------------------------------------ passive cache

def test_digest_from_malformed_fields_is_none():
    assert HostDigest.from_fields({}) is None
    assert HostDigest.from_fields({"host": "ws1", "load": "not-a-number",
                                   "memory_free": 1, "ts": 0,
                                   "pm": None}) is None


def test_observe_newest_timestamp_wins():
    cache, _sim = bare_cache()
    cache.observe(digest("ws1", load=2, ts=100))
    cache.observe(digest("ws1", load=0, ts=50))  # older: ignored
    assert cache.entries["ws1"].load == 2
    cache.observe(digest("ws1", load=1, ts=200))
    assert cache.entries["ws1"].load == 1
    assert cache.stats.observations == 2


def test_fresh_entries_respect_ttl():
    cache, sim = bare_cache(ttl_us=1_000)
    cache.observe(digest("ws1", ts=0))
    cache.observe(digest("ws2", ts=900))
    assert [d.host for d in cache.fresh_entries(now=500)] == ["ws1", "ws2"]
    assert [d.host for d in cache.fresh_entries(now=1_500)] == ["ws2"]
    assert cache.fresh_digest("ws1", now=1_500) is None
    assert cache.fresh_digest("ws2", now=1_500).host == "ws2"


def test_best_fit_orders_by_load_then_memory_then_name():
    cache, _sim = bare_cache()
    cache.observe(digest("ws3", load=1, memory_free=500))
    cache.observe(digest("ws2", load=0, memory_free=100))
    cache.observe(digest("ws1", load=0, memory_free=900))
    assert cache.best_fit().host == "ws1"        # least load, most memory
    assert cache.best_fit(exclude=("ws1",)).host == "ws2"
    assert cache.best_fit(exclude=("ws1", "ws2", "ws3")) is None


def test_idle_hosts_filters_by_load():
    cache, _sim = bare_cache()
    cache.observe(digest("ws1", load=0))
    cache.observe(digest("ws2", load=5))
    assert [d.host for d in cache.idle_hosts(idle_load=3)] == ["ws1"]


def test_drop_forgets_a_host():
    cache, _sim = bare_cache()
    cache.observe(digest("ws1"))
    cache.drop("ws1")
    cache.drop("ws1")  # idempotent
    assert "ws1" not in cache.entries
    assert cache.stats.drops == 1


def test_stalest_orders_unknown_then_oldest_then_name():
    cache, _sim = bare_cache(refresh_fanout=4)
    cache.observe(digest("ws1", ts=300))
    cache.observe(digest("ws2", ts=100))
    cache.observe(digest("ws3", ts=100))
    cache.observe(digest("ws4", ts=50))
    roster = {name: f"pm-{name}"
              for name in ("ws4", "ws3", "ws6", "ws2", "ws1", "ws5")}
    # Unknown hosts (ws5, ws6) first by name, then oldest ts_us with the
    # name breaking the ws2/ws3 tie; the fan-out cuts the freshest off.
    assert cache._stalest(roster) == [
        ("ws5", "pm-ws5"), ("ws6", "pm-ws6"),
        ("ws4", "pm-ws4"), ("ws2", "pm-ws2"),
    ]
    cache.refresh_fanout = 10
    assert [name for name, _ in cache._stalest(roster)] == [
        "ws5", "ws6", "ws4", "ws2", "ws3", "ws1"]


def test_make_policy_coercions():
    assert isinstance(make_policy("random_k"), RandomK)
    assert isinstance(make_policy(CachedBestFit), CachedBestFit)
    policy = FirstResponder()
    assert make_policy(policy) is policy
    with pytest.raises(ValueError):
        make_policy("no-such-policy")
    with pytest.raises(TypeError):
        make_policy(42)


# ------------------------------------------------------------- wire protocol

def test_candidate_reply_carries_piggybacked_digest():
    """Digests ride on the replies the manager already sends -- with the
    placement toggles off (the default) as much as on."""
    cluster = make_cluster(3, full=True, registry=standard_registry(scale=0.3))
    replies = []

    def session(ctx):
        from repro.execution.api import select_candidate_host

        reply = yield from select_candidate_host()
        replies.append(reply)

    cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=5_000_000)
    assert replies
    d = HostDigest.from_fields(replies[0]["digest"])
    assert d is not None
    assert d.host == replies[0]["host"]
    assert d.load == replies[0]["load"]


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
    target and politely declined -- with a fresh digest -- when its
    accept policy refuses."""
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
    assert HostDigest.from_fields(replies[0]["digest"]) is not None
    assert cluster.pm("ws1").exec_declines == 1


# ----------------------------------------------------------- placed execution

def loaded_ws1_cluster(n=3):
    """ws1 pinned full of long-running programs (its accept policy now
    refuses), everyone else idle."""
    cluster = make_cluster(n, full=True, toggles={"load_cache": True},
                           registry=standard_registry(scale=0.3))
    started = []

    def loader(ctx):
        for _ in range(3):
            handle = yield from exec_program(
                ctx, ExecSpec("longsim", where="ws1"))
            started.append(handle)

    cluster.spawn_session(cluster.workstations[0], loader, name="loader")
    while len(started) < 3 and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    assert len(started) == 3
    return cluster


def test_stale_best_fit_choice_is_declined_then_retried():
    """CachedBestFit trusts a stale view claiming the full host is the
    best; admission control catches it and the retry lands elsewhere."""
    cluster = loaded_ws1_cluster()
    cache = cluster.host_caches["ws0"]
    sim = cluster.sim
    # Plant a stale-but-fresh-looking digest making full ws1 irresistible.
    cache.observe(HostDigest(
        host="ws1", pm=cluster.pm("ws1").pcb.pid, load=0, remote=0,
        ready=0, memory_free=1 << 22, ts_us=sim.now))
    cache.observe(HostDigest(
        host="ws2", pm=cluster.pm("ws2").pcb.pid, load=0, remote=0,
        ready=0, memory_free=1 << 20, ts_us=sim.now))
    done = []

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec(
            "cc68", args=("x.c",), where="*", policy=CachedBestFit()))
        code = yield from wait_program(ctx, handle)
        done.append((handle, code))

    planted_ts = cache.entries["ws1"].ts_us
    cluster.spawn_session(cluster.workstations[0], session)
    while not done and sim.peek() is not None:
        sim.run(until_us=sim.now + 500_000)
    assert done
    handle, code = done[0]
    assert code == 0
    assert handle.host == "ws2"
    assert handle.attempts == 2
    assert cluster.pm("ws1").exec_declines == 1
    # The decline's piggy-backed digest displaced the planted stale view.
    assert cache.entries["ws1"].ts_us > planted_ts


def test_crashed_best_fit_choice_times_out_then_retried():
    """A fresh-looking cache entry for a dead host: the create-program
    send times out, the host is dropped from the view, and the retry
    lands on a live one."""
    cluster = make_cluster(3, full=True, toggles={"load_cache": True},
                           registry=standard_registry(scale=0.3))
    sim = cluster.sim
    cache = cluster.host_caches["ws0"]
    dead_pm = cluster.pm("ws1").pcb.pid
    cluster.station("ws1").kernel.crash()
    del cluster.program_managers["ws1"]
    cache.observe(HostDigest(
        host="ws1", pm=dead_pm, load=0, remote=0, ready=0,
        memory_free=1 << 22, ts_us=sim.now))
    cache.observe(HostDigest(
        host="ws2", pm=cluster.pm("ws2").pcb.pid, load=0, remote=0,
        ready=0, memory_free=1 << 20, ts_us=sim.now))
    done = []

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec(
            "cc68", args=("x.c",), where="*", policy=CachedBestFit()))
        code = yield from wait_program(ctx, handle)
        done.append((handle, code))

    cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=sim.now + 120_000_000)
    assert done
    handle, code = done[0]
    assert code == 0
    assert handle.host == "ws2"
    assert "ws1" not in cache.entries  # dropped on the timeout


def test_randomk_cold_cache_falls_back_and_warms_whole_view():
    """An empty cache degrades to the paper's multicast -- and the
    straggler replies (GetReplies) warm the entire view in one shot."""
    cluster = make_cluster(4, full=True, toggles={"load_cache": True},
                           registry=standard_registry(scale=0.3))
    cache = cluster.host_caches["ws0"]
    cache.entries.clear()
    done = []

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec(
            "cc68", args=("x.c",), where="*", policy=RandomK(k=2)))
        code = yield from wait_program(ctx, handle)
        done.append(code)

    cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=cluster.sim.now + 120_000_000)
    assert done == [0]
    # Every willing host answered the one multicast; all were folded in.
    assert len(cache.entries) >= 3


def test_probe_placement_toggle_selects_randomk_by_default():
    """With ``PLACEMENT.probe_placement`` on and no explicit policy, a
    plain ``@ *`` spec resolves to cached RandomK probing."""
    cluster = make_cluster(
        3, full=True,
        toggles={"load_cache": True, "probe_placement": True},
        registry=standard_registry(scale=0.3))
    # Warm the view so the policy probes rather than falling back.
    cluster.run(until_us=3_000_000)
    before = sum(pm.selection_queries
                 for pm in cluster.program_managers.values())
    done = []

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec("cc68", args=("x.c",),
                                                       where="*"))
        code = yield from wait_program(ctx, handle)
        done.append((handle, code))

    cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=cluster.sim.now + 120_000_000)
    assert done and done[0][1] == 0
    probes = sum(pm.selection_queries
                 for pm in cluster.program_managers.values()) - before
    # k=3 capped at the fresh-idle candidate count; never a multicast.
    assert 1 <= probes <= 3


# ------------------------------------------------------------- anti-entropy

def test_anti_entropy_keeps_idle_view_fresh():
    cluster = make_cluster(3, full=True, toggles={"load_cache": True},
                           registry=standard_registry(scale=0.3))
    cache = cluster.host_caches["ws0"]
    cluster.run(until_us=8_000_000)
    assert cache.stats.refreshes > 0
    fresh = {d.host for d in cache.fresh_entries()}
    assert fresh == {"ws0", "ws1", "ws2"}
    # Refresh traffic is accounted separately from selection traffic.
    assert sum(pm.refresh_queries
               for pm in cluster.program_managers.values()) > 0
    assert sum(pm.selection_queries
               for pm in cluster.program_managers.values()) == 0


def test_anti_entropy_recovers_view_after_reboot():
    """A rebooted workstation gets a fresh manager pid; the daemon's
    re-resolved roster picks it up instead of probing the ghost."""
    cluster = make_cluster(3, full=True, toggles={"load_cache": True},
                           registry=standard_registry(scale=0.3))
    cache = cluster.host_caches["ws0"]
    cluster.run(until_us=8_000_000)
    old_pm = cache.entries["ws1"].pm
    cluster.sim.strict = False
    cluster.reboot_workstation("ws1")
    cluster.run(until_us=cluster.sim.now + 10_000_000)
    assert cache.fresh_digest("ws1") is not None
    assert cache.entries["ws1"].pm != old_pm


def test_reboot_reinstalls_cache_on_owner():
    cluster = make_cluster(3, full=True, toggles={"load_cache": True},
                           registry=standard_registry(scale=0.3))
    first = cluster.host_caches["ws1"]
    cluster.sim.strict = False
    cluster.reboot_workstation("ws1")
    assert cluster.host_caches["ws1"] is not first
    cluster.run(until_us=cluster.sim.now + 8_000_000)
    assert cluster.host_caches["ws1"].stats.refreshes > 0


def test_no_cache_daemons_without_toggle():
    cluster = make_cluster(2, full=True,
                           registry=standard_registry(scale=0.3))
    assert cluster.host_caches == {}
    cluster.run(until_us=5_000_000)
    assert sum(pm.refresh_queries
               for pm in cluster.program_managers.values()) == 0
