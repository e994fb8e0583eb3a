"""Adaptive pre-copy termination (``HardwareModel.precopy_adaptive``).

The static policy freezes as soon as one round fails to halve the dirty
set.  On a *phased* workload -- a heavy write phase that ends during the
first copy round, leaving a small hot set -- that freezes a large
residual one round too early.  The adaptive controller projects the next
round's residual from the observed dirty rate and keeps copying while
the projection shrinks, so it rides out the phase change and freezes a
tiny residual at nearly the same total cost.
"""

import pytest

from repro.config import PAGE_SIZE
from repro.kernel import Compute, Delay, Priority, TouchPages
from repro.migration.manager import run_migration
from repro.migration.precopy import AdaptivePrecopy, PrecopyPolicy

from tests.helpers import make_cluster


class TestAdaptiveController:
    def test_stops_at_residual_threshold(self):
        ctl = AdaptivePrecopy(PrecopyPolicy(residual_threshold_bytes=16 * PAGE_SIZE))
        assert ctl.decide(16, 100, 1_000_000, 1)
        assert ctl.reason == "residual-threshold"

    def test_continues_while_projection_shrinks(self):
        ctl = AdaptivePrecopy(PrecopyPolicy(residual_threshold_bytes=0))
        # 60 dirty after a 100-page round projects 36 next round: the
        # static policy would stop here (60% > 50%); adaptive continues.
        assert not ctl.decide(60, 100, 1_000_000, 2)
        assert ctl.projected == pytest.approx(36.0)
        assert ctl.rate_pps == pytest.approx(60.0)

    def test_stops_when_no_significant_reduction(self):
        ctl = AdaptivePrecopy(PrecopyPolicy(residual_threshold_bytes=0,
                                            adaptive_margin=0.95))
        # 98 dirty after a 100-page round: another round buys nothing.
        assert ctl.decide(98, 100, 1_000_000, 2)
        assert ctl.reason == "no-significant-reduction"

    def test_stops_at_adaptive_round_cap(self):
        ctl = AdaptivePrecopy(PrecopyPolicy(residual_threshold_bytes=0,
                                            adaptive_max_rounds=4))
        assert ctl.decide(10, 1000, 1_000_000, 4)
        assert ctl.reason == "max-rounds"


N_PAGES = 256
HEAVY_PAGES = 160  # distinct pages the heavy phase keeps re-dirtying
HOT = tuple(range(200, 204))  # steady-state hot set, under the threshold


def _migrate_phased_hog(toggles=None):
    """Migrate a phased hog; returns its MigrationStats."""
    cluster = make_cluster(3, seed=5, full=True, toggles=toggles)
    sim = cluster.sim
    kernel = cluster.workstations[1].kernel
    lh = kernel.create_logical_host()
    kernel.allocate_space(lh, N_PAGES * PAGE_SIZE, name="hog")

    def victim():
        # Heavy phase: sweep a 160-page window so every scan during it
        # sees ~160 dirty pages.  Ends at 1.6 s -- inside copy round 0
        # (0.2 s .. ~1.75 s) -- leaving only the 4-page hot set.
        window = 0
        while sim.now < 1_600_000:
            yield Compute(3_000)
            yield TouchPages(range(window, window + 16))
            window = (window + 16) % HEAVY_PAGES
        while True:
            yield Compute(3_000)
            yield TouchPages(HOT)

    kernel.create_process(lh, victim(), priority=Priority.LOCAL, name="hog")
    results = []

    def mgr():
        yield Delay(200_000)
        stats = yield from run_migration(kernel, lh)
        results.append(stats)

    kernel.create_process(
        cluster.pm("ws1").pcb.logical_host, mgr(),
        priority=Priority.MIGRATION, name="mgr",
    )
    while not results and sim.peek() is not None:
        sim.run(until_us=sim.now + 500_000)
    assert results, "migration never completed"
    assert results[0].success, results[0].error
    return results[0]


def test_adaptive_rides_out_the_phase_change():
    static = _migrate_phased_hog()
    adaptive = _migrate_phased_hog(toggles={"adaptive_precopy": True})

    # The static policy froze right after the phase change with the
    # heavy-phase residue still dirty; adaptive copied one more round
    # while running and froze only the hot set.
    assert static.precopy_rounds == 1
    assert adaptive.precopy_rounds >= 2
    assert adaptive.freeze_us < static.freeze_us / 5
    # ... without re-copying meaningfully more data overall.
    static_pages = sum(r.pages for r in static.rounds) + static.residual_pages
    adaptive_pages = (
        sum(r.pages for r in adaptive.rounds) + adaptive.residual_pages
    )
    assert adaptive_pages <= static_pages * 1.1
    assert adaptive.adaptive and not static.adaptive
    assert adaptive.stop_reason == "residual-threshold"
    assert static.stop_reason is None
