"""Two clusters in one process share nothing.

Every input of a run -- seed, fault plane, perturber -- belongs to the
cluster it builds, so two clusters stepped in turn in one process each
replay the trajectory they have when run alone: nothing one builds or
runs leaks into the other.
"""

from repro.config import PAGE_SIZE
from repro.kernel import Compute, Delay, Priority, TouchPages
from repro.migration.manager import run_migration

from tests.helpers import make_cluster

#: 100 ms steps: 6 simulated seconds, well past the migration at 0.2 s.
STEPS = 60


def _migrating_cluster(seed):
    """A cluster whose ws1 hog is migrated 0.2 s in; returns the
    cluster and the list its MigrationStats lands in."""
    cluster = make_cluster(3, seed=seed, full=True)
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


def _outcome(cluster, done):
    stats = done[0]
    return (stats.success, stats.lhid, stats.freeze_us, stats.precopy_rounds,
            cluster.sim.event_count, cluster.net.packets_sent)


def _run(*clusters):
    """Step the clusters in turn, 100 ms each, for :data:`STEPS` steps."""
    for _ in range(STEPS):
        for cluster, _done in clusters:
            cluster.sim.run(until_us=cluster.sim.now + 100_000)
    return [_outcome(cluster, done) for cluster, done in clusters]


def test_two_interleaved_clusters_match_their_solo_runs():
    interleaved = _run(_migrating_cluster(5), _migrating_cluster(6))
    solo = [_run(_migrating_cluster(seed))[0] for seed in (5, 6)]
    assert interleaved == solo
    assert all(outcome[0] for outcome in interleaved)
