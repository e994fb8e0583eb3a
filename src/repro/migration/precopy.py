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

from repro._fastpath import COPY_PLANE
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
    #: Adaptive mode (``COPY_PLANE.adaptive_precopy``): keep iterating
    #: while the projected next-round residual is below this fraction of
    #: the current dirty set -- i.e. freeze only when another round is
    #: projected to buy no significant reduction.
    adaptive_margin: float = 0.95
    #: Adaptive mode round cap; looser than :attr:`max_rounds` because a
    #: converging projection is a reason to keep going, but a slowly
    #: converging workload must still terminate.
    adaptive_max_rounds: int = 12

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


class AdaptivePrecopy:
    """Dirty-rate-aware termination for the pre-copy loop.

    The static policy freezes as soon as one round fails to halve the
    dirty set, even when the workload is converging steadily (e.g. a 0.6x
    reduction per round still shrinks the residual geometrically).  This
    controller instead *measures*: the observed reduction ratio ``r =
    dirty / previous`` is exactly the dirty-rate / copy-bandwidth balance
    of the last round, so ``r * dirty`` projects the residual another
    round would leave.  It continues while that projection keeps
    shrinking meaningfully and freezes on the paper's literal criterion
    -- "no significant reduction in the number of modified pages is
    achieved" (§3.1.2) -- when it does not.
    """

    __slots__ = ("policy", "projected", "rate_pps", "reason")

    def __init__(self, policy: PrecopyPolicy):
        self.policy = policy
        #: Projected next-round residual, in pages (last decision).
        self.projected = 0.0
        #: Observed dirty rate, pages per second of copy time.
        self.rate_pps = 0.0
        #: Why the last decision said to stop (None while continuing).
        self.reason = None

    def decide(
        self,
        dirty_pages: int,
        previous_pages: int,
        prev_duration_us: int,
        rounds_done: int,
    ) -> bool:
        """Whether to freeze now.  Updates the observed-rate fields."""
        policy = self.policy
        if prev_duration_us > 0:
            self.rate_pps = dirty_pages * 1e6 / prev_duration_us
        if dirty_pages * PAGE_SIZE <= policy.residual_threshold_bytes:
            self.reason = "residual-threshold"
            return True
        if rounds_done >= policy.adaptive_max_rounds:
            self.reason = "max-rounds"
            return True
        # Reduction ratio of the last round; both the dirty rate and the
        # effective copy bandwidth (including network contention) are in
        # the observation, so no model constant is needed.
        ratio = dirty_pages / previous_pages if previous_pages else 1.0
        self.projected = ratio * dirty_pages
        if self.projected >= dirty_pages * policy.adaptive_margin:
            self.reason = "no-significant-reduction"
            return True
        self.reason = None
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
    adaptive = None
    if COPY_PLANE.adaptive_precopy:
        adaptive = AdaptivePrecopy(policy)
        stats.adaptive = True
    space.collect_dirty()
    started = sim.now
    span = 0
    if trace.active:
        attrs = dict(space=space.name, round=0, pages=len(space.pages))
        if adaptive is not None:
            attrs["precopy_adaptive"] = True
        span = trace.begin_span(
            "migration", "precopy-round", parent=parent_span, **attrs
        )
    if invariants is not None:
        invariants.note_page_versions(space, space.pages)
    yield CopyToInstr(target, space.pages)
    if span:
        trace.end_span(span)
    stats.add_round(len(space.pages), sim.now - started)
    previous = len(space.pages)
    prev_duration = sim.now - started

    while True:
        dirty = space.collect_dirty()
        if not len(dirty):
            if adaptive is not None:
                stats.stop_reason = "clean"
            return []
        if adaptive is not None:
            stop = adaptive.decide(
                len(dirty), previous, prev_duration, len(stats.rounds)
            )
            stats.projected_residual_pages = int(adaptive.projected)
            stats.dirty_rate_pps = adaptive.rate_pps
            metrics = sim.metrics
            if metrics.active:
                metrics.counter("precopy.projected_residual").inc(
                    int(adaptive.projected)
                )
            if trace.active:
                trace.record(
                    "migration", "precopy-adaptive",
                    space=space.name, dirty=len(dirty),
                    projected=int(adaptive.projected), stop=stop,
                )
            if stop:
                stats.stop_reason = adaptive.reason
                return dirty
        elif policy.should_stop(len(dirty), previous, len(stats.rounds)):
            return dirty
        started = sim.now
        span = 0
        if trace.active:
            attrs = dict(space=space.name, round=len(stats.rounds), pages=len(dirty))
            if adaptive is not None:
                attrs["precopy_adaptive"] = True
            span = trace.begin_span(
                "migration", "precopy-round", parent=parent_span, **attrs
            )
        if invariants is not None:
            invariants.note_page_versions(space, dirty)
        yield CopyToInstr(target, dirty)
        if span:
            trace.end_span(span)
        stats.add_round(len(dirty), sim.now - started)
        previous = len(dirty)
        prev_duration = sim.now - started


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
