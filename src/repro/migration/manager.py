"""The migration manager: orchestrates one migration end to end.

Runs as a process on the *source* workstation at
:attr:`Priority.MIGRATION` -- above all programs -- "to prevent these
other programs from interfering with the progress of the pre-copy
operation" (paper §3.1.2).  Failure handling follows §3.1.3: if the copy
or transfer fails for lack of acknowledgement, we assume the new host
failed, unfreeze the original, and (like the paper's implementation)
give up after the first attempt unless a retry budget is configured.

:class:`Migration` is the one copy of the §3.1 procedure: locating a
host, creating the shell, the freeze, the kernel-state install with its
rollback, and deleting the old copy.  A migration method supplies only
how pages move, in its two copy phases -- one while the program runs,
one while it is frozen.  :class:`Migration`'s own phases pre-copy;
:mod:`vm_flush` flushes to the file server and :mod:`simple` copies
everything frozen.
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
    return (yield from Migration(kernel, lh, policy).run(
        dest_pm, destroy_if_stranded, max_attempts, retry_backoff_us,
    ))


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


class Migration:
    """One migration of ``lh`` by the paper's §3.1 procedure.

    Its copy phases are pre-copy's: :meth:`copy_live` pre-copies one
    address space while the program runs, :meth:`copy_frozen` copies
    that space's residual after the freeze.  A subclass replaces those
    two (and :meth:`prepare`, :meth:`offer_bytes`, :meth:`bundle` where
    its transfer differs); every other step is shared.
    """

    #: ``method=`` of the ``migrate`` span and the ``complete`` record.
    method = "precopy"
    #: Span around the live copy phase (None: nothing moves live).
    live_span: Optional[str] = "precopy"
    #: Span per address space inside ``freeze``.
    residual_span = "residual-copy"

    def __init__(self, kernel, lh: LogicalHost,
                 policy: Optional[PrecopyPolicy] = None):
        self.kernel = kernel
        self.lh = lh
        self.sim = kernel.sim
        self.policy = policy or PrecopyPolicy.from_model(kernel.model)
        self.stats = MigrationStats(lhid=lh.lhid, started_at=self.sim.now)
        self.stats.n_processes = len(lh.live_processes())
        self.stats.n_spaces = len(lh.spaces)
        self.temp_lhid = 0

    # -- what a method supplies ---------------------------------------------

    def prepare(self) -> None:
        """Set up one attempt's copy state, before any message is sent;
        raises :class:`NotMigratableError` if ``lh`` cannot move this way."""
        self.reps = space_representatives(self.lh)
        self.residuals: Dict[int, List] = {}

    def offer_bytes(self) -> int:
        """The memory the destination must have free (``offer-lh``)."""
        return self.lh.total_bytes()

    def copy_live(self, ordinal: int, space, parent_span: int):
        """Pre-copy one space while the program runs (generator)."""
        self.residuals[ordinal] = yield from precopy_space(
            space, self.target(ordinal), self.policy, self.stats, self.sim,
            parent_span=parent_span,
        )

    def copy_frozen(self, ordinal: int, space):
        """Copy one space's residual while frozen (generator); returns
        the pages moved."""
        return (yield from final_copy(
            space, self.target(ordinal), self.residuals[ordinal],
            self.stats, self.sim,
        ))

    def bundle(self):
        """The kernel-state bundle ``install-state`` carries (§3.1.3)."""
        return extract_bundle(self.kernel, self.lh)

    def _span(self, name: str, parent: int = 0, **data) -> int:
        """Open a ``migration`` span of this host and logical host (0 when
        not traced, which ``end_span`` ignores)."""
        return self.sim.trace.begin_span(
            "migration", name, parent=parent, host=self.kernel.name,
            lhid=self.lh.lhid, **data,
        )

    def target(self, ordinal: int) -> Pid:
        """The shell stub a CopyTo of space ``ordinal`` is addressed to."""
        return Pid(self.temp_lhid, self.reps[ordinal])

    # -- the shared procedure -----------------------------------------------

    def run(self, dest_pm: Optional[Pid] = None,
            destroy_if_stranded: bool = False, max_attempts: int = 1,
            retry_backoff_us: int = 0):
        """Attempt the migration up to ``max_attempts`` times (generator;
        returns the :class:`MigrationStats`).  See :func:`run_migration`."""
        kernel, lh, sim, stats = self.kernel, self.lh, self.sim, self.stats
        for attempt in range(max_attempts):
            stats.attempts = attempt + 1
            if attempt and retry_backoff_us:
                yield Delay(min(retry_backoff_us << (attempt - 1),
                                retry_backoff_us * 8))
                if not _lh_alive(kernel, lh):
                    stats.error = "program exited during migration"
                    break
            root_span = self._span("migrate", attempt=attempt,
                                   method=self.method)
            outcome = yield from self._attempt(dest_pm, root_span)
            sim.trace.end_span(root_span, outcome=outcome or "ok")
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

    def _attempt(self, dest_pm, root_span=0):
        """One migration attempt; returns None on success, error text on
        failure (with the logical host left running at the source)."""
        kernel, lh, sim, stats = self.kernel, self.lh, self.sim, self.stats
        trace = sim.trace
        try:
            spaces_desc = space_descriptors(lh)
            procs_desc = process_descriptors(lh)
            self.prepare()
        except NotMigratableError as exc:
            return str(exc)

        # -- step 1: locate a willing workstation ----------------------------
        if dest_pm is None:
            try:
                offer = yield Send(
                    PROGRAM_MANAGER_GROUP,
                    Message("offer-lh", bytes=self.offer_bytes(),
                            processes=len(procs_desc)),
                )
            except SendTimeoutError:
                return "no candidate host"
            dest_pm = offer["pm"]
            stats.dest_host = offer.get("host")

        # -- step 2: initialize the new host ----------------------------------
        try:
            shell_reply = yield Send(
                local_kernel_server_group(dest_pm.logical_host_id),
                Message("create-shell", spaces=spaces_desc,
                        processes=procs_desc),
            )
        except SendTimeoutError:
            return "destination unreachable during shell creation"
        if shell_reply.kind != "shell-created":
            return f"shell creation refused: {shell_reply.get('error')}"
        temp_lhid = self.temp_lhid = shell_reply["temp_lhid"]
        trace.record("migration", "shell", lhid=lh.lhid, temp=temp_lhid)

        # -- step 3: copy while the program runs -----------------------------
        spaces = list(lh.spaces)  # capture: the list empties if the victim exits
        live_span = self._span(self.live_span, root_span) if self.live_span else 0
        try:
            for ordinal, space in enumerate(spaces):
                if not _lh_alive(kernel, lh):
                    trace.end_span(live_span, outcome="aborted")
                    yield from _cleanup_shell(temp_lhid)
                    return "program exited during migration"
                yield from self.copy_live(ordinal, space, live_span)
        except (CopyFailedError, SendTimeoutError) as exc:
            trace.end_span(live_span, outcome="failed")
            return f"pre-copy failed: {exc}"
        trace.end_span(live_span, rounds=stats.precopy_rounds)

        # -- step 4: freeze and complete the copy -----------------------------
        if not _lh_alive(kernel, lh):
            yield from _cleanup_shell(temp_lhid)
            return "program exited during migration"
        kernel.freeze_logical_host(lh)
        stats.freeze_started_at = sim.now
        # The freeze span starts the instant freeze_started_at is taken and
        # ends exactly where freeze_us is accumulated, so its duration
        # equals stats.freeze_us for a single-attempt migration.
        freeze_span = self._span("freeze", root_span)
        bundle = None
        try:
            for ordinal, space in enumerate(spaces):
                residual_span = self._span(self.residual_span, freeze_span,
                                           space=space.name)
                moved = yield from self.copy_frozen(ordinal, space)
                trace.end_span(residual_span, pages=moved)
            bundle = self.bundle()
            install_reply = yield Send(
                local_kernel_server_group(temp_lhid),
                Message("install-state", temp_lhid=temp_lhid, bundle=bundle),
            )
            if install_reply.kind != "installed":
                raise CopyFailedError(
                    f"state install refused: {install_reply.get('error')}"
                )
        except (CopyFailedError, SendTimeoutError) as exc:
            # Paper §3.1.3: assume the new host failed; the logical host
            # has not been transferred.  Restore and unfreeze the original.
            if bundle is not None:
                for record in bundle["transport"]["clients"]:
                    if record.pcb.client_record is None:
                        record.pcb.client_record = record
                kernel.ipc.adopt_from_migration(bundle["transport"])
            stats.freeze_us += sim.now - stats.freeze_started_at
            trace.end_span(freeze_span, outcome="failed")
            kernel.unfreeze_logical_host(lh)
            reprocess_deferred(kernel, lh)
            return f"transfer failed: {exc}"

        stats.freeze_us += sim.now - stats.freeze_started_at
        trace.end_span(freeze_span, freeze_us=stats.freeze_us)

        # -- step 5: delete the old copy; references rebind lazily ------------
        rebind_span = self._span("rebind", root_span)
        if kernel.logical_hosts.get(lh.lhid) is lh:
            kernel.destroy_logical_host(lh, migrated=True)
            invariants = sim.invariants
            if invariants is not None:
                invariants.note_migration_commit(lh.lhid, kernel.name, sim.now)
        trace.end_span(rebind_span)
        trace.record(
            "migration", "complete", lhid=lh.lhid, method=self.method,
            freeze_us=stats.freeze_us, rounds=stats.precopy_rounds,
            residual=stats.residual_bytes,
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
