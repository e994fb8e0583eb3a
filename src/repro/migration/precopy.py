"""The pre-copy algorithm (paper §3.1.2).

Pre-copying is "an initial copy of the complete address spaces followed
by repeated copies of the pages modified during the previous copy until
the number of modified pages is relatively small or until no significant
reduction in the number of modified pages is achieved".  The remaining
modified pages are recopied after the logical host is frozen
(:func:`final_copy`).

These are generator helpers ``yield from``-ed by the migration manager's
process body, so the copies consume simulated time and contend for the
network like any other bulk transfer -- while the migrating program
keeps running and keeps dirtying pages underneath them, which is the
entire point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.config import PAGE_SIZE, HardwareModel
from repro.kernel.address_space import AddressSpace, Page
from repro.kernel.ids import Pid
from repro.kernel.process import CopyToInstr
from repro.migration.stats import MigrationStats


@dataclass(frozen=True)
class PrecopyPolicy:
    """Termination knobs for the pre-copy loop."""

    #: Stop iterating once the dirty residual is at most this many bytes.
    residual_threshold_bytes: int = 32 * 1024
    #: Stop when a round failed to shrink the dirty set to at most this
    #: fraction of the previous round ("no significant reduction").
    min_reduction: float = 0.5
    #: Hard cap on rounds (the initial full copy counts as round 0).
    max_rounds: int = 5

    @classmethod
    def from_model(cls, model: HardwareModel) -> "PrecopyPolicy":
        """The policy encoded in a hardware model's calibration."""
        return cls(
            residual_threshold_bytes=model.precopy_residual_threshold_bytes,
            min_reduction=model.precopy_min_reduction,
            max_rounds=model.precopy_max_rounds,
        )

    def should_stop(self, dirty_pages: int, previous_pages: int, rounds_done: int) -> bool:
        """Whether to freeze now instead of running another round."""
        if rounds_done >= self.max_rounds:
            return True
        if dirty_pages * PAGE_SIZE <= self.residual_threshold_bytes:
            return True
        if previous_pages and dirty_pages > previous_pages * self.min_reduction:
            return True  # no significant reduction
        return False


def precopy_space(
    space: AddressSpace,
    target: Pid,
    policy: PrecopyPolicy,
    stats: MigrationStats,
    sim,
    parent_span: int = 0,
):
    """Pre-copy one address space into the stub process ``target``.

    Returns the residual dirty pages that must be copied after the
    freeze.  (Generator: ``residual = yield from precopy_space(...)``.)
    Each copy round becomes a child span of ``parent_span`` when tracing
    is active.
    """
    # Round 0: the complete address space.  Clearing the dirty bits first
    # means "modified during this copy" is exactly what the next round's
    # scan returns.  Both the clear and every later scan are O(dirty)
    # mask operations, so the simulator's own cost per round tracks the
    # pages actually recopied, not the space size.
    trace = sim.trace
    invariants = sim.invariants
    space.collect_dirty()
    dirty = space.pages
    # Rounds of *this* space in *this* attempt: the policy's cap is per
    # space, so earlier spaces' rounds in ``stats.rounds`` do not count.
    rounds = 0
    while True:
        started = sim.now
        span = 0
        if trace.active:
            span = trace.begin_span(
                "migration", "precopy-round", parent=parent_span,
                space=space.name, round=rounds, pages=len(dirty),
            )
        if invariants is not None:
            invariants.note_page_versions(space, dirty)
        yield CopyToInstr(target, dirty)
        if span:
            trace.end_span(span)
        stats.add_round(len(dirty), sim.now - started)
        rounds += 1
        previous = len(dirty)
        dirty = space.collect_dirty()
        if not len(dirty):
            return []
        if policy.should_stop(len(dirty), previous, rounds):
            return dirty


def final_copy(
    space: AddressSpace,
    target: Pid,
    residual: List[Page],
    stats: MigrationStats,
    sim=None,
):
    """Copy the frozen residual: the carried-over dirty pages plus any
    dirtied between the last scan and the freeze (there can be no new
    writers now).  Generator; run **after** the freeze."""
    merged: Dict[int, Page] = {page.index: page for page in residual}
    for page in space.collect_dirty():
        merged[page.index] = page
    pages = [merged[i] for i in sorted(merged)]
    if pages:
        if sim is not None and sim.invariants is not None:
            sim.invariants.note_page_versions(space, pages)
        yield CopyToInstr(target, pages)
    stats.residual_pages += len(pages)
    return len(pages)
