"""Flush-based migration over demand-paged virtual memory (paper §3.2).

Instead of copying address spaces host-to-host, repeatedly flush dirty
pages to the network file server while the program runs, freeze, flush
the residual, and transfer only the kernel state.  The new host faults
pages in from the file server on demand.  "This approach takes two
network transfers instead of just one for pages that are dirty on the
original host and then referenced on the new host.  However, we expect
this technique to allow us to move programs off of the original host
faster" -- both effects are measurable here (experiment E10).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import NotMigratableError
from repro.kernel.ids import Pid
from repro.kernel.logical_host import LogicalHost
from repro.kernel.process import Delay
from repro.migration.manager import Migration
from repro.migration.precopy import PrecopyPolicy


def run_vm_flush_migration(
    kernel,
    lh: LogicalHost,
    policy: Optional[PrecopyPolicy] = None,
    dest_pm: Optional[Pid] = None,
):
    """Migrate ``lh`` by flushing to the file server (generator; returns
    :class:`MigrationStats`).  Every address space must have a pager."""
    return (yield from VmFlushMigration(kernel, lh, policy).run(dest_pm))


class VmFlushMigration(Migration):
    """The §3.1 procedure with flushes in place of copies: the shell's
    spaces stay empty and the bundle hands over the pagers, so the new
    host faults pages in from the file server on demand."""

    method = "vm-flush"
    live_span = "flush"
    residual_span = "residual-flush"

    def prepare(self) -> None:
        """Every address space must be demand-paged."""
        self.pagers = {}
        for ordinal, space in enumerate(self.lh.spaces):
            if space.pager is None:
                raise NotMigratableError(f"space {space.name} is not demand-paged")
            self.pagers[ordinal] = space.pager

    def offer_bytes(self) -> int:
        """Nothing is copied into the destination's memory up front."""
        return 0

    def copy_live(self, ordinal: int, space, parent_span: int):
        """Repeated flushes of one space's pager while the program runs,
        under the pre-copy stop rule."""
        sim, stats, trace = self.sim, self.stats, self.sim.trace
        pager = self.pagers[ordinal]
        rounds = 0  # this pager's flushes: the round cap is per space
        previous = 0
        while True:
            n_dirty = pager.dirty_resident_count()
            if not n_dirty:
                return
            if rounds and self.policy.should_stop(n_dirty, previous, rounds):
                return
            started = sim.now
            span = 0
            if trace.active:
                span = trace.begin_span(
                    "migration", "flush-round", parent=parent_span,
                    host=self.kernel.name, pages=n_dirty,
                )
            count, cost = pager.flush_dirty_resident()
            yield Delay(cost)
            if span:
                trace.end_span(span, flushed=count)
            stats.add_round(count, sim.now - started)
            rounds += 1
            previous = count

    def copy_frozen(self, ordinal: int, space):
        """Flush the residual dirty pages; returns the pages flushed."""
        count, cost = self.pagers[ordinal].flush_dirty_resident()
        if count:
            yield Delay(cost)
            self.stats.residual_pages += count
        return count

    def bundle(self):
        """The kernel state plus the pagers the new host attaches."""
        bundle = super().bundle()
        bundle["pagers"] = self.pagers
        return bundle
