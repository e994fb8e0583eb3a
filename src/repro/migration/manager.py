"""The migration manager: orchestrates one migration end to end.

Runs as a process on the *source* workstation at
:attr:`Priority.MIGRATION` -- above all programs -- "to prevent these
other programs from interfering with the progress of the pre-copy
operation" (paper §3.1.2).  Failure handling follows §3.1.3: if the copy
or transfer fails for lack of acknowledgement, we assume the new host
failed, unfreeze the original, and (like the paper's implementation)
give up after the first attempt unless a retry budget is configured.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import (
    CopyFailedError,
    NotMigratableError,
    SendTimeoutError,
)
from repro.ipc.messages import Message
from repro.kernel.ids import (
    PROGRAM_MANAGER_GROUP,
    Pid,
    local_kernel_server_group,
)
from repro.kernel.kernel_server import reprocess_deferred
from repro.kernel.logical_host import LogicalHost
from repro.kernel.process import Delay, Send
from repro.migration.precopy import PrecopyPolicy, final_copy, precopy_space
from repro.migration.stats import MigrationStats
from repro.migration.transfer import (
    extract_bundle,
    process_descriptors,
    space_descriptors,
    space_representatives,
)


def run_migration(
    kernel,
    lh: LogicalHost,
    policy: Optional[PrecopyPolicy] = None,
    dest_pm: Optional[Pid] = None,
    destroy_if_stranded: bool = False,
    max_attempts: int = 1,
    retry_backoff_us: int = 0,
):
    """Migrate ``lh`` off this workstation.  Generator: run inside a
    process body with ``stats = yield from run_migration(...)``.

    ``dest_pm`` pins the destination (for experiments); otherwise the
    program-manager group is asked and the first responder wins.
    ``destroy_if_stranded`` is the ``migrateprog -n`` flag: destroy the
    program when no other host will take it.  A failed attempt always
    leaves the source copy running (abort + rollback); with
    ``max_attempts > 1`` further attempts follow, spaced by
    ``retry_backoff_us`` doubling per retry (capped at 8x) so a sick
    destination or lossy network is not hammered back-to-back.
    """
    sim = kernel.sim
    policy = policy or PrecopyPolicy.from_model(kernel.model)
    stats = MigrationStats(lhid=lh.lhid, started_at=sim.now)
    stats.n_processes = len(lh.live_processes())
    stats.n_spaces = len(lh.spaces)

    for attempt in range(max_attempts):
        stats.attempts = attempt + 1
        if attempt and retry_backoff_us:
            yield Delay(min(retry_backoff_us << (attempt - 1),
                            retry_backoff_us * 8))
            if not _lh_alive(kernel, lh):
                stats.error = "program exited during migration"
                break
        trace = sim.trace
        root_span = 0
        if trace.active:
            root_span = trace.begin_span(
                "migration", "migrate", host=kernel.name,
                lhid=lh.lhid, attempt=attempt,
            )
        outcome = yield from _attempt(
            kernel, lh, policy, dest_pm, stats, sim, root_span
        )
        if root_span:
            trace.end_span(root_span, outcome=outcome or "ok")
        if outcome is None:
            stats.success = True
            stats.total_us = sim.now - stats.started_at
            _record_metrics(kernel, stats)
            return stats
        stats.error = outcome
        if outcome == "no candidate host":
            break  # retrying immediately will not conjure a host
    stats.total_us = sim.now - stats.started_at
    if not stats.success and destroy_if_stranded:
        if kernel.hosts_lhid(lh.lhid):
            kernel.destroy_logical_host(lh)
        stats.error = f"{stats.error} (program destroyed, -n)"
    _record_metrics(kernel, stats)
    return stats


def _record_metrics(kernel, stats: MigrationStats) -> None:
    """Fold one finished migration into the unified registry."""
    m = kernel.sim.metrics
    if not m.active:
        return
    host = kernel.name
    m.counter("mig.migrations", host).inc()
    if not stats.success:
        m.counter("mig.failures", host).inc()
    m.counter("mig.rounds", host).inc(stats.precopy_rounds)
    m.counter("mig.precopy_us", host).inc(
        sum(r.duration_us for r in stats.rounds)
    )
    m.counter("mig.freeze_us", host).inc(stats.freeze_us)
    m.counter("mig.residual_bytes", host).inc(stats.residual_bytes)
    if stats.adaptive:
        m.counter("mig.adaptive", host).inc()
    m.histogram("mig.total_us", host).observe(stats.total_us)


def _lh_alive(kernel, lh) -> bool:
    """Whether the migration victim still exists with live processes (it
    may exit -- and be reaped -- while we are copying it)."""
    return kernel.logical_hosts.get(lh.lhid) is lh and lh.has_live_process()


def _cleanup_shell(temp_lhid):
    """Best-effort teardown of the destination shell after an abort."""
    try:
        yield Send(
            local_kernel_server_group(temp_lhid),
            Message("destroy-lh", lhid=temp_lhid),
        )
    except SendTimeoutError:
        pass  # destination gone too; nothing to clean


def _attempt(kernel, lh, policy, dest_pm, stats, sim, root_span=0):
    """One migration attempt; returns None on success, error text on
    failure (with the logical host left running at the source)."""
    trace = sim.trace
    try:
        spaces_desc = space_descriptors(lh)
        procs_desc = process_descriptors(lh)
        reps = space_representatives(lh)
    except NotMigratableError as exc:
        return str(exc)

    # -- step 1: locate a willing workstation --------------------------------
    if dest_pm is None:
        try:
            offer = yield Send(
                PROGRAM_MANAGER_GROUP,
                Message("offer-lh", bytes=lh.total_bytes(),
                        processes=len(procs_desc)),
            )
        except SendTimeoutError:
            return "no candidate host"
        dest_pm = offer["pm"]
        stats.dest_host = offer.get("host")

    # -- step 2: initialize the new host --------------------------------------
    try:
        shell_reply = yield Send(
            local_kernel_server_group(dest_pm.logical_host_id),
            Message("create-shell", spaces=spaces_desc, processes=procs_desc),
        )
    except SendTimeoutError:
        return "destination unreachable during shell creation"
    if shell_reply.kind != "shell-created":
        return f"shell creation refused: {shell_reply.get('error')}"
    temp_lhid = shell_reply["temp_lhid"]
    if sim.trace.active:
        sim.trace.record("migration", "shell", lhid=lh.lhid, temp=temp_lhid)

    # -- step 3: pre-copy ------------------------------------------------------
    residuals: Dict[int, List] = {}
    spaces = list(lh.spaces)  # capture: the list empties if the victim exits
    precopy_span = 0
    if trace.active:
        precopy_span = trace.begin_span(
            "migration", "precopy", parent=root_span,
            host=kernel.name, lhid=lh.lhid,
        )
    try:
        for ordinal, space in enumerate(spaces):
            if not _lh_alive(kernel, lh):
                if precopy_span:
                    trace.end_span(precopy_span, outcome="aborted")
                yield from _cleanup_shell(temp_lhid)
                return "program exited during migration"
            target = Pid(temp_lhid, reps[ordinal])
            residuals[ordinal] = yield from precopy_space(
                space, target, policy, stats, sim, parent_span=precopy_span
            )
    except (CopyFailedError, SendTimeoutError) as exc:
        if precopy_span:
            trace.end_span(precopy_span, outcome="failed")
        return f"pre-copy failed: {exc}"
    if precopy_span:
        if stats.adaptive:
            trace.end_span(
                precopy_span, rounds=stats.precopy_rounds,
                precopy_adaptive=True, stop_reason=stats.stop_reason,
            )
        else:
            trace.end_span(precopy_span, rounds=stats.precopy_rounds)

    # -- step 4: freeze and complete the copy ---------------------------------
    if not _lh_alive(kernel, lh):
        yield from _cleanup_shell(temp_lhid)
        return "program exited during migration"
    kernel.freeze_logical_host(lh)
    stats.freeze_started_at = sim.now
    # The freeze span starts the instant freeze_started_at is taken and
    # ends exactly where freeze_us is accumulated, so its duration equals
    # stats.freeze_us for a single-attempt migration.
    freeze_span = 0
    if trace.active:
        freeze_span = trace.begin_span(
            "migration", "freeze", parent=root_span,
            host=kernel.name, lhid=lh.lhid,
        )
    bundle = None
    try:
        for ordinal, space in enumerate(spaces):
            target = Pid(temp_lhid, reps[ordinal])
            residual_span = 0
            if trace.active:
                residual_span = trace.begin_span(
                    "migration", "residual-copy", parent=freeze_span,
                    host=kernel.name, lhid=lh.lhid, space=space.name,
                )
            copied = yield from final_copy(
                space, target, residuals[ordinal], stats, sim
            )
            if residual_span:
                trace.end_span(residual_span, pages=copied)
        bundle = extract_bundle(kernel, lh)
        install_reply = yield Send(
            local_kernel_server_group(temp_lhid),
            Message("install-state", temp_lhid=temp_lhid, bundle=bundle),
        )
        if install_reply.kind != "installed":
            raise CopyFailedError(
                f"state install refused: {install_reply.get('error')}"
            )
    except (CopyFailedError, SendTimeoutError) as exc:
        # Paper §3.1.3: assume the new host failed; the logical host has
        # not been transferred.  Restore and unfreeze the original.
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
        return f"transfer failed: {exc}"

    stats.freeze_us += sim.now - stats.freeze_started_at
    if freeze_span:
        trace.end_span(freeze_span, freeze_us=stats.freeze_us)

    # -- step 5: delete the old copy; references rebind lazily ----------------
    rebind_span = 0
    if trace.active:
        rebind_span = trace.begin_span(
            "migration", "rebind", parent=root_span,
            host=kernel.name, lhid=lh.lhid,
        )
    if kernel.logical_hosts.get(lh.lhid) is lh:
        kernel.destroy_logical_host(lh, migrated=True)
        invariants = sim.invariants
        if invariants is not None:
            invariants.note_migration_commit(lh.lhid, kernel.name, sim.now)
    if rebind_span:
        trace.end_span(rebind_span)
    if sim.trace.active:
        sim.trace.record(
            "migration", "complete", lhid=lh.lhid, freeze_us=stats.freeze_us,
            rounds=stats.precopy_rounds, residual=stats.residual_bytes,
        )
    return None


def migration_manager_body(pm, lh: LogicalHost, token: int, request: Message):
    """Process body wrapping :func:`run_migration` for the program
    manager: runs the migration, then reports back so the PM can answer
    the original ``migrate-out`` requester."""
    stats = yield from run_migration(
        pm.kernel,
        lh,
        destroy_if_stranded=request.get("destroy_if_stranded", False),
        dest_pm=request.get("dest_pm"),
        max_attempts=request.get("max_attempts", 1),
        retry_backoff_us=request.get("retry_backoff_us", 0),
    )
    yield Send(
        pm.pcb.pid,
        Message(
            "migration-finished",
            token=token,
            ok=stats.success,
            dest=stats.dest_host,
            error=stats.error,
            stats=stats,
        ),
    )
