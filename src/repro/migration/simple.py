"""The freeze-and-copy strawman (paper §3.1).

"The simplest approach to migrating a logical host is to freeze its
state while the migration is in progress" -- and the paper's complaint
is exactly what this implementation exhibits: a 2 MB logical host stays
frozen for over 6 seconds while its address spaces cross the wire.  It
exists as the ablation baseline for experiment E12.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.ids import Pid
from repro.kernel.logical_host import LogicalHost
from repro.migration.manager import Migration
from repro.migration.precopy import final_copy


def run_freeze_and_copy(
    kernel,
    lh: LogicalHost,
    dest_pm: Optional[Pid] = None,
):
    """Migrate ``lh`` the naive way: freeze first, then copy everything.

    Generator; returns :class:`MigrationStats` whose ``freeze_us`` covers
    the *entire* copy -- the number pre-copying exists to shrink.
    """
    return (yield from FreezeAndCopyMigration(kernel, lh).run(dest_pm))


class FreezeAndCopyMigration(Migration):
    """The §3.1 procedure with nothing copied before the freeze."""

    method = "freeze-and-copy"
    live_span = None

    def copy_live(self, ordinal: int, space, parent_span: int):
        """Nothing moves while the program runs."""
        yield from ()

    def copy_frozen(self, ordinal: int, space):
        """Copy the whole space: the whole transfer is freeze time."""
        return (yield from final_copy(
            space, self.target(ordinal), space.pages, self.stats, self.sim,
        ))
