"""Binding-cache counters: per-host metrics and the hits that repeated
pid-directed sends over a stable binding score."""

from repro.cluster import build_cluster
from repro.execution.api import query_host_by_name
from repro.ipc.binding_cache import BindingCache
from repro.net.addresses import workstation_address
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.workloads import standard_registry


class TestCounters:
    def test_metrics_surface_in_registry(self):
        registry = MetricsRegistry()
        registry.enable()
        cache = BindingCache(Simulator(seed=0))
        cache.bind_metrics(registry, "ws9")
        cache.learn(1, workstation_address(1))
        cache.lookup(1)
        cache.lookup(2)
        per_host = registry.snapshot()["per_host"]["ws9"]
        assert per_host["ipc.binding_hits"] == 1
        assert per_host["ipc.binding_misses"] == 1

    def test_repeated_sends_hit_the_binding_cache(self):
        # ws0 resolves ws1's program manager by group multicast (which
        # teaches the cache its binding), then every pid-directed send
        # is a cache hit.
        from repro.ipc.messages import Message
        from repro.kernel.process import Send

        count = 8
        cluster = build_cluster(
            n_workstations=3, registry=standard_registry(scale=0.2), seed=3,
        )
        sim = cluster.sim
        replies = []

        def session(ctx):
            pm = yield from query_host_by_name("ws1")
            for _ in range(count):
                reply = yield Send(pm, Message("query-host", hostname="ws1"))
                replies.append(str(reply["pm"]))

        cache = cluster.workstations[0].kernel.binding_cache
        cluster.spawn_session(cluster.workstations[0], session)
        while len(replies) < count and sim.peek() is not None:
            sim.run(until_us=sim.now + 100_000)
        assert len(replies) == count
        assert (cache.hits, cache.misses) == (count, 0)
