"""The pre-copy round cap counts one address space's rounds.

``PrecopyPolicy.max_rounds`` bounds the copy rounds of each address
space in each attempt.  ``MigrationStats.rounds`` lists every space's
rounds, so a cap read off it would let the first space spend the
second space's budget: the second space would get only its full copy
and freeze with every page its writer dirtied meanwhile.
"""

from repro.config import PAGE_SIZE
from repro.kernel import Compute, Delay, Priority, TouchPages
from repro.migration.manager import run_migration
from repro.migration.precopy import PrecopyPolicy

from tests.helpers import make_cluster

PAGES = 96


def _migrate_two_space_host(policy):
    """Migrate a logical host with two 96-page spaces, each with a
    writer dirtying one page per 20 ms; returns its MigrationStats."""
    cluster = make_cluster(3, seed=5, full=True)
    kernel = cluster.workstations[1].kernel
    lh = kernel.create_logical_host()
    for name in ("a", "b"):
        space = kernel.allocate_space(lh, PAGES * PAGE_SIZE, name=name)

        def writer():
            page = 0
            while True:
                yield Compute(20_000)
                yield TouchPages((page,))
                page = (page + 1) % PAGES

        kernel.create_process(lh, writer(), space=space, name=name)
    done = []

    def mgr():
        yield Delay(200_000)
        done.append((yield from run_migration(kernel, lh, policy=policy)))

    kernel.create_process(
        cluster.pm("ws1").pcb.logical_host, mgr(),
        priority=Priority.MIGRATION, name="mgr",
    )
    while not done:
        assert cluster.sim.now < 30_000_000, "migration never finished"
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    assert done[0].success, done[0].error
    return done[0]


def test_round_cap_is_per_address_space():
    stats = _migrate_two_space_host(PrecopyPolicy(
        residual_threshold_bytes=0, min_reduction=0.9, max_rounds=3))
    # Each space converges 96 -> ~15 -> 2 and stops at its own cap of 3.
    assert [r.pages for r in stats.rounds] == [96, 15, 2, 96, 14, 2]
    assert stats.residual_pages == 17
