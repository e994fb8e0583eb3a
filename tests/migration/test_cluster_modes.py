"""Protocol modes are inputs of the cluster they run in.

The placement plane (``build_cluster(placement=)``) is the one protocol
mode, so two clusters in one process can run different placement modes
side by side: nothing one builds or runs leaks into the other.
"""

from repro.config import PAGE_SIZE
from repro.kernel import Compute, Delay, Priority, TouchPages
from repro.migration.manager import run_migration

from tests.helpers import make_cluster


def _migrating_cluster(load_cache):
    """A cluster whose ws1 hog is migrated 0.2 s in; returns the
    cluster and the list its MigrationStats lands in."""
    cluster = make_cluster(3, seed=5, full=True,
                           toggles={"load_cache": load_cache})
    kernel = cluster.workstations[1].kernel
    lh = kernel.create_logical_host()
    kernel.allocate_space(lh, 64 * PAGE_SIZE, name="hog")

    def hog():
        while True:
            yield Compute(3_000)
            yield TouchPages(range(8))

    kernel.create_process(lh, hog(), priority=Priority.LOCAL, name="hog")
    done = []

    def mgr():
        yield Delay(200_000)
        stats = yield from run_migration(kernel, lh)
        done.append(stats)

    kernel.create_process(
        cluster.pm("ws1").pcb.logical_host, mgr(),
        priority=Priority.MIGRATION, name="mgr",
    )
    return cluster, done


def test_two_clusters_in_one_process_keep_their_own_modes():
    cached, cached_done = _migrating_cluster(load_cache=True)
    plain, plain_done = _migrating_cluster(load_cache=False)
    # Interleave the two simulations in small steps until both migrated
    # and the cached cluster's anti-entropy daemons have ticked.
    while not (cached_done and plain_done) or cached.sim.now < 3_000_000:
        for cluster in (cached, plain):
            assert cluster.sim.now < 30_000_000, "migration never finished"
            cluster.sim.run(until_us=cluster.sim.now + 100_000)

    assert cached_done[0].success and plain_done[0].success
    assert set(cached.host_caches) == {ws.name for ws in cached.workstations}
    assert sum(c.stats.refreshes for c in cached.host_caches.values()) > 0
    assert plain.host_caches == {}
