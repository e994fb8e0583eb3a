"""Protocol modes are inputs of the cluster they run in.

Adaptive pre-copy lives in the cluster's hardware model, so two
clusters in one process can run different modes side by side: nothing
one builds or runs leaks into the other.
"""

from dataclasses import replace

from repro.config import DEFAULT_MODEL, PAGE_SIZE
from repro.kernel import Compute, Delay, Priority, TouchPages
from repro.migration.manager import run_migration

from tests.helpers import make_cluster


def _migrating_cluster(model):
    """A cluster whose ws1 hog is migrated 0.2 s in; returns the
    cluster and the list its MigrationStats lands in."""
    cluster = make_cluster(3, seed=5, full=True, model=model)
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
    modal, modal_done = _migrating_cluster(
        replace(DEFAULT_MODEL, precopy_adaptive=True))
    plain, plain_done = _migrating_cluster(DEFAULT_MODEL)
    # Interleave the two simulations in small steps until both migrated.
    while not (modal_done and plain_done):
        for cluster in (modal, plain):
            assert cluster.sim.now < 30_000_000, "migration never finished"
            cluster.sim.run(until_us=cluster.sim.now + 100_000)

    assert modal_done[0].success and plain_done[0].success
    assert modal_done[0].adaptive
    assert not plain_done[0].adaptive
