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

from repro._fastpath import COPY_PLANE
from repro.errors import CopyFailedError, NotMigratableError, SendTimeoutError
from repro.ipc.messages import Message
from repro.kernel.ids import PROGRAM_MANAGER_GROUP, Pid, local_kernel_server_group
from repro.kernel.kernel_server import reprocess_deferred
from repro.kernel.logical_host import LogicalHost
from repro.kernel.process import Delay, Send
from repro.migration.manager import _record_metrics
from repro.migration.precopy import AdaptivePrecopy, PrecopyPolicy
from repro.migration.stats import MigrationStats
from repro.migration.transfer import (
    extract_bundle,
    process_descriptors,
    space_descriptors,
)


def run_vm_flush_migration(
    kernel,
    lh: LogicalHost,
    policy: Optional[PrecopyPolicy] = None,
    dest_pm: Optional[Pid] = None,
):
    """Migrate ``lh`` by flushing to the file server (generator; returns
    :class:`MigrationStats`).  Every address space must have a pager."""
    sim = kernel.sim
    policy = policy or PrecopyPolicy.from_model(kernel.model)
    stats = MigrationStats(lhid=lh.lhid, started_at=sim.now)
    stats.n_processes = len(lh.live_processes())
    stats.n_spaces = len(lh.spaces)
    trace = sim.trace
    root_span = 0
    if trace.active:
        root_span = trace.begin_span(
            "migration", "vm-flush-migrate", host=kernel.name, lhid=lh.lhid,
        )

    def finish(outcome):
        if root_span:
            trace.end_span(root_span, outcome=outcome)
        _record_metrics(kernel, stats)
        return stats

    pagers = {}
    for ordinal, space in enumerate(lh.spaces):
        if space.pager is None:
            stats.error = f"space {space.name} is not demand-paged"
            return finish("failed")
        pagers[ordinal] = space.pager
    try:
        spaces_desc = space_descriptors(lh)
        procs_desc = process_descriptors(lh)
    except NotMigratableError as exc:
        stats.error = str(exc)
        return finish("failed")

    # -- step 1: locate a willing workstation --------------------------------
    if dest_pm is None:
        try:
            offer = yield Send(
                PROGRAM_MANAGER_GROUP,
                Message("offer-lh", bytes=0, processes=len(procs_desc)),
            )
        except SendTimeoutError:
            stats.error = "no candidate host"
            return finish("failed")
        dest_pm = offer["pm"]
        stats.dest_host = offer.get("host")

    # -- step 2: initialize the new host (empty spaces; pages fault in) ------
    try:
        shell_reply = yield Send(
            local_kernel_server_group(dest_pm.logical_host_id),
            Message("create-shell", spaces=spaces_desc, processes=procs_desc),
        )
    except SendTimeoutError:
        stats.error = "destination unreachable during shell creation"
        return finish("failed")
    if shell_reply.kind != "shell-created":
        stats.error = f"shell creation refused: {shell_reply.get('error')}"
        return finish("failed")
    temp_lhid = shell_reply["temp_lhid"]

    def lh_alive():
        return kernel.logical_hosts.get(lh.lhid) is lh and lh.has_live_process()

    # -- step 3: repeated flushes while the program runs ----------------------
    for ordinal, pager in pagers.items():
        # Under COPY_PLANE.adaptive_precopy the flush loop uses the same
        # dirty-rate projection as pre-copying: keep flushing while the
        # projected residual of another round still shrinks meaningfully.
        adaptive = None
        if COPY_PLANE.adaptive_precopy:
            adaptive = AdaptivePrecopy(policy)
            stats.adaptive = True
        previous = 0
        prev_duration = 0
        while True:
            n_dirty = pager.dirty_resident_count()
            if not n_dirty:
                break
            if adaptive is not None:
                if stats.rounds and adaptive.decide(
                    n_dirty, previous, prev_duration, len(stats.rounds)
                ):
                    stats.stop_reason = adaptive.reason
                    stats.projected_residual_pages = int(adaptive.projected)
                    stats.dirty_rate_pps = adaptive.rate_pps
                    break
            elif stats.rounds and policy.should_stop(
                n_dirty, previous, len(stats.rounds)
            ):
                break
            started = sim.now
            span = 0
            if trace.active:
                span = trace.begin_span(
                    "migration", "flush-round", parent=root_span,
                    host=kernel.name, pages=n_dirty,
                )
            count, cost = pager.flush_dirty_resident()
            yield Delay(cost)
            if span:
                trace.end_span(span, flushed=count)
            stats.add_round(count, sim.now - started)
            previous = count
            prev_duration = sim.now - started

    # -- step 4: freeze, flush the residual, transfer kernel state ------------
    if not lh_alive():
        stats.error = "program exited during migration"
        stats.total_us = sim.now - stats.started_at
        return finish("aborted")
    kernel.freeze_logical_host(lh)
    stats.freeze_started_at = sim.now
    freeze_span = 0
    if trace.active:
        freeze_span = trace.begin_span(
            "migration", "freeze", parent=root_span,
            host=kernel.name, lhid=lh.lhid,
        )
    bundle = None
    try:
        for pager in pagers.values():
            span = 0
            if trace.active:
                span = trace.begin_span(
                    "migration", "residual-flush", parent=freeze_span,
                    host=kernel.name, pager=pager.name,
                )
            count, cost = pager.flush_all_dirty()
            if count:
                yield Delay(cost)
                stats.residual_pages += count
            if span:
                trace.end_span(span, flushed=count)
        bundle = extract_bundle(kernel, lh)
        bundle["pagers"] = pagers
        install_reply = yield Send(
            local_kernel_server_group(temp_lhid),
            Message("install-state", temp_lhid=temp_lhid, bundle=bundle),
        )
        if install_reply.kind != "installed":
            raise CopyFailedError(
                f"state install refused: {install_reply.get('error')}"
            )
    except (CopyFailedError, SendTimeoutError) as exc:
        if bundle is not None:
            for record in bundle["transport"]["clients"]:
                if record.pcb.client_record is None:
                    record.pcb.client_record = record
            kernel.ipc.adopt_from_migration(bundle["transport"])
        stats.freeze_us += sim.now - stats.freeze_started_at
        if freeze_span:
            trace.end_span(freeze_span, outcome="failed")
        kernel.unfreeze_logical_host(lh)
        reprocess_deferred(kernel, lh)
        stats.error = f"transfer failed: {exc}"
        stats.total_us = sim.now - stats.started_at
        return finish("failed")

    stats.freeze_us += sim.now - stats.freeze_started_at
    if freeze_span:
        trace.end_span(freeze_span, freeze_us=stats.freeze_us)

    # -- step 5: delete the old copy ------------------------------------------
    if kernel.logical_hosts.get(lh.lhid) is lh:
        kernel.destroy_logical_host(lh, migrated=True)
    stats.success = True
    stats.total_us = sim.now - stats.started_at
    if sim.trace.active:
        sim.trace.record(
            "migration", "vm-flush-complete", lhid=lh.lhid,
            freeze_us=stats.freeze_us, flushes=sum(r.pages for r in stats.rounds),
        )
    return finish("ok")
