"""The freeze-and-copy strawman (paper §3.1).

"The simplest approach to migrating a logical host is to freeze its
state while the migration is in progress" -- and the paper's complaint
is exactly what this implementation exhibits: a 2 MB logical host stays
frozen for over 6 seconds while its address spaces cross the wire.  It
exists as the ablation baseline for experiment E12.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CopyFailedError, SendTimeoutError
from repro.kernel.ids import PROGRAM_MANAGER_GROUP, Pid, local_kernel_server_group
from repro.kernel.kernel_server import reprocess_deferred
from repro.kernel.logical_host import LogicalHost
from repro.kernel.process import Send
from repro.ipc.messages import Message
from repro.migration.stats import MigrationStats
from repro.migration.transfer import (
    extract_bundle,
    process_descriptors,
    space_descriptors,
    space_representatives,
)


def run_freeze_and_copy(
    kernel,
    lh: LogicalHost,
    dest_pm: Optional[Pid] = None,
):
    """Migrate ``lh`` the naive way: freeze first, then copy everything.

    Generator; returns :class:`MigrationStats` whose ``freeze_us`` covers
    the *entire* copy -- the number pre-copying exists to shrink.
    """
    sim = kernel.sim
    stats = MigrationStats(lhid=lh.lhid, started_at=sim.now)
    stats.n_processes = len(lh.live_processes())
    stats.n_spaces = len(lh.spaces)

    spaces_desc = space_descriptors(lh)
    procs_desc = process_descriptors(lh)
    reps = space_representatives(lh)

    if dest_pm is None:
        try:
            offer = yield Send(
                PROGRAM_MANAGER_GROUP,
                Message("offer-lh", bytes=lh.total_bytes(), processes=len(procs_desc)),
            )
        except SendTimeoutError:
            stats.error = "no candidate host"
            return stats
        dest_pm = offer["pm"]
        stats.dest_host = offer.get("host")

    try:
        shell_reply = yield Send(
            local_kernel_server_group(dest_pm.logical_host_id),
            Message("create-shell", spaces=spaces_desc, processes=procs_desc),
        )
    except SendTimeoutError:
        stats.error = "destination unreachable"
        return stats
    if shell_reply.kind != "shell-created":
        stats.error = f"shell refused: {shell_reply.get('error')}"
        return stats
    temp_lhid = shell_reply["temp_lhid"]

    if kernel.logical_hosts.get(lh.lhid) is not lh or not lh.has_live_process():
        stats.error = "program exited during migration"
        return stats
    # Freeze *before* any copying: the whole transfer is freeze time.
    kernel.freeze_logical_host(lh)
    stats.freeze_started_at = sim.now
    bundle = None
    try:
        from repro.kernel.process import CopyToInstr

        for ordinal, space in enumerate(lh.spaces):
            target = Pid(temp_lhid, reps[ordinal])
            space.collect_dirty()
            yield CopyToInstr(target, space.pages)
            stats.residual_pages += len(space.pages)
        bundle = extract_bundle(kernel, lh)
        install_reply = yield Send(
            local_kernel_server_group(temp_lhid),
            Message("install-state", temp_lhid=temp_lhid, bundle=bundle),
        )
        if install_reply.kind != "installed":
            raise CopyFailedError(f"install refused: {install_reply.get('error')}")
    except (CopyFailedError, SendTimeoutError) as exc:
        if bundle is not None:
            for record in bundle["transport"]["clients"]:
                if record.pcb.client_record is None:
                    record.pcb.client_record = record
            kernel.ipc.adopt_from_migration(bundle["transport"])
        stats.freeze_us = sim.now - stats.freeze_started_at
        kernel.unfreeze_logical_host(lh)
        reprocess_deferred(kernel, lh)
        stats.error = f"transfer failed: {exc}"
        stats.total_us = sim.now - stats.started_at
        return stats

    stats.freeze_us = sim.now - stats.freeze_started_at
    if kernel.logical_hosts.get(lh.lhid) is lh:
        kernel.destroy_logical_host(lh, migrated=True)
    stats.success = True
    stats.total_us = sim.now - stats.started_at
    return stats
