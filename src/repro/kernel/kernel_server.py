"""The kernel server: low-level process and memory management via IPC.

Each workstation runs a kernel server "executing inside the kernel"
(paper §2.1).  Programs and program managers reach it through the
well-known local group ``(own-logical-host-id, KERNEL_SERVER_INDEX)``,
which is what keeps references to it location-independent across
migration.  Every operation charges the paper's measured overheads: the
~100 us group-id indirection and the 13 us frozen check (§4.1).

Migration support (the "several new kernel operations" of §4.2):

* ``create-shell`` -- build an empty copy of a logical host under a fresh
  temporary id, with stub processes and allocated-but-empty address
  spaces, ready to receive pre-copied pages;
* ``install-state`` -- the atomic kernel-state transfer: install process
  bodies and transport records into the stubs, swap the temporary id for
  the original one, unfreeze, and announce the new binding;
* ``freeze`` / ``unfreeze`` / ``destroy-lh`` for remote management.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import KernelError, OutOfMemoryError
from repro.ipc.messages import Message
from repro.kernel.ids import Pid
from repro.kernel.process import (
    Compute,
    Pcb,
    Priority,
    ProcessState,
    Receive,
    Reply,
)

#: Fixed CPU cost of a simple kernel-server operation.
KS_OP_BASE_US = 200

#: CPU cost of building a shell logical host at a migration destination.
SHELL_INIT_US = 5_000


def _stub_body():
    """Placeholder body for shell stub processes; never actually stepped
    (install-state replaces it before the stub can run)."""
    raise KernelError("shell stub executed before install-state")
    yield  # pragma: no cover - makes this a generator function


def kernel_server_body(kernel):
    """Server loop of the kernel server process.

    Modelled CPU costs are charged *before* the operation takes effect,
    so that e.g. the 14 ms + 9 ms/object kernel-state copy falls inside
    the freeze window the way the paper measures it.
    """
    model = kernel.model
    while True:
        sender, msg = yield Receive()
        # The group-id indirection is charged by the transport on
        # delivery; here only the frozen check and the op's base cost.
        yield Compute(model.frozen_check_us + KS_OP_BASE_US)
        handler = _HANDLERS.get(msg.kind)
        if handler is None:
            yield Reply(sender, Message("ks-error", error=f"unknown op {msg.kind!r}"))
            continue
        cost_fn = _COSTS.get(msg.kind)
        if cost_fn is not None:
            yield Compute(cost_fn(kernel, msg))
        result = handler(kernel, sender, msg)
        if result is None:
            continue  # deferred: no reply yet (frozen target)
        yield Reply(sender, result)


# ----------------------------------------------------------------- handlers
#
# Each handler returns the reply Message, or None to defer (no reply now;
# the request waits in the logical host's deferred queue).  Modelled CPU
# costs are charged by the server loop via _COSTS *before* the handler
# runs, so they land inside the freeze window where the paper measures
# them.


def _target_frozen(kernel, msg) -> bool:
    """Whether the op's target pid sits in a frozen logical host."""
    pid = msg.get("pid")
    if pid is None:
        return False
    lh = kernel.logical_hosts.get(pid.logical_host_id)
    return lh is not None and lh.frozen


def _defer_if_frozen(kernel, sender, msg):
    """Paper §3.1.3: requests that would modify a frozen logical host are
    deferred until it is unfrozen."""
    pid = msg["pid"]
    lh = kernel.logical_hosts[pid.logical_host_id]
    lh.defer_request((sender, msg))
    return True


def _h_query_process(kernel, sender, msg):
    pcb = kernel.find_pcb(msg["pid"])
    if pcb is None:
        return Message("ks-error", error="no such process")
    return Message(
        "process-state",
        pid=pcb.pid,
        name=pcb.name,
        state=pcb.state_label(),
        priority=int(pcb.priority),
        cpu_used_us=pcb.cpu_used_us,
        frozen=pcb.frozen,
    )


def _h_query_load(kernel, sender, msg):
    summary = kernel.load_summary()
    return Message("load", **summary)


def _h_get_time(kernel, sender, msg):
    return Message("time", now_us=kernel.sim.now)


def _h_query_utilization(kernel, sender, msg):
    """Processor utilization since boot -- the paper's example of state a
    process must query via IPC rather than reading kernel memory (§6)."""
    now = max(kernel.sim.now, 1)
    busy = kernel.scheduler.busy_now()
    return Message(
        "utilization",
        busy_us=busy,
        now_us=kernel.sim.now,
        utilization=min(1.0, busy / now),
    )


def _h_destroy_process(kernel, sender, msg):
    if _target_frozen(kernel, msg):
        _defer_if_frozen(kernel, sender, msg)
        return None
    pcb = kernel.find_pcb(msg["pid"])
    if pcb is None:
        return Message("ks-error", error="no such process")
    kernel.destroy_process(pcb, exit_code=msg.get("exit_code", -1))
    return Message("ok")


def _h_set_priority(kernel, sender, msg):
    if _target_frozen(kernel, msg):
        _defer_if_frozen(kernel, sender, msg)
        return None
    pcb = kernel.find_pcb(msg["pid"])
    if pcb is None:
        return Message("ks-error", error="no such process")
    kernel.set_priority(pcb, Priority(msg["priority"]))
    return Message("ok")


def _h_suspend(kernel, sender, msg):
    if _target_frozen(kernel, msg):
        _defer_if_frozen(kernel, sender, msg)
        return None
    pcb = kernel.find_pcb(msg["pid"])
    if pcb is None:
        return Message("ks-error", error="no such process")
    kernel.suspend_process(pcb)
    return Message("ok")


def _h_resume(kernel, sender, msg):
    if _target_frozen(kernel, msg):
        _defer_if_frozen(kernel, sender, msg)
        return None
    pcb = kernel.find_pcb(msg["pid"])
    if pcb is None:
        return Message("ks-error", error="no such process")
    kernel.resume_process(pcb)
    return Message("ok")


def _h_freeze(kernel, sender, msg):
    lh = kernel.logical_hosts.get(msg["lhid"])
    if lh is None:
        return Message("ks-error", error="no such logical host")
    kernel.freeze_logical_host(lh)
    return Message("ok")


def _h_unfreeze(kernel, sender, msg):
    lh = kernel.logical_hosts.get(msg["lhid"])
    if lh is None:
        return Message("ks-error", error="no such logical host")
    kernel.unfreeze_logical_host(lh)
    reprocess_deferred(kernel, lh)
    return Message("ok")


def reprocess_deferred(kernel, lh) -> None:
    """Handle requests deferred while the logical host was frozen (the
    failed-migration unfreeze path: it is still here, so serve them)."""
    for deferred_sender, deferred_msg in lh.drain_deferred():
        handler = _HANDLERS.get(deferred_msg.kind)
        if handler is None:
            continue
        result = handler(kernel, deferred_sender, deferred_msg)
        if result is None:
            continue
        ks = kernel.kernel_server_pcb
        kernel.ipc.reply_from(ks, deferred_sender, result)


def _h_create_shell(kernel, sender, msg):
    """Build the empty destination copy of a migrating logical host."""
    spaces_desc = msg["spaces"]
    procs_desc = msg["processes"]
    try:
        shell = kernel.create_logical_host()
    except KernelError as exc:
        return Message("ks-error", error=str(exc))
    shell.is_shell = True
    spaces = []
    try:
        for size, code, data, name in spaces_desc:
            spaces.append(kernel.allocate_space(shell, size, code, data, name))
    except OutOfMemoryError as exc:
        kernel.destroy_logical_host(shell)
        return Message("ks-error", error=str(exc))
    for index, space_ordinal, name in procs_desc:
        pid = Pid(shell.lhid, index)
        stub = Pcb(
            pid, shell, spaces[space_ordinal], _stub_body(),
            Priority.REMOTE, f"stub:{name}",
        )
        stub.state = ProcessState.SUSPENDED
        shell.add_process(stub)
    return Message("shell-created", temp_lhid=shell.lhid)


def _h_install_state(kernel, sender, msg):
    """The atomic kernel-state transfer (paper §3.1.3): turn the shell
    into the real, frozen logical host, then unfreeze it and announce
    the new binding."""
    bundle: Dict[str, Any] = msg["bundle"]
    temp_lhid = msg["temp_lhid"]
    shell = kernel.logical_hosts.get(temp_lhid)
    if shell is None or not shell.is_shell:
        return Message("ks-error", error=f"no shell {temp_lhid:#x}")

    for pdesc in bundle["processes"]:
        stub = shell.find_process(pdesc["index"])
        if stub is None:
            return Message("ks-error", error=f"no stub at index {pdesc['index']:#x}")
        stub.body = pdesc["body"]
        stub.name = pdesc["name"]
        stub.priority = pdesc["priority"]
        stub.state = pdesc["state"]
        stub.remaining_us = pdesc["remaining_us"]
        stub.resume_value = pdesc["resume_value"]
        stub.resume_throw = pdesc["resume_throw"]
        stub.wake_pending = pdesc["wake_pending"]
        stub.next_seq = pdesc["next_seq"]
        stub.suspended = pdesc.get("suspended", False)
        stub.cpu_used_us = pdesc["cpu_used_us"]
        stub.messages_sent = pdesc["messages_sent"]
        stub.messages_received = pdesc["messages_received"]

    # The shell becomes the logical host, under its original id, frozen.
    shell.is_shell = False
    shell.frozen = True
    kernel.change_lhid(shell, bundle["lhid"])

    # Adopt transport state, re-pointing records at the new PCBs.
    transport_state = bundle["transport"]
    for record in transport_state["clients"]:
        stub = shell.find_process(record.src_pid.local_index)
        if stub is not None:
            record.pcb = stub
            stub.client_record = record
    kernel.ipc.adopt_from_migration(transport_state)

    # Rejoin groups the migrated processes belonged to.
    for index, group_list in bundle["groups"].items():
        pid = Pid(shell.lhid, index)
        for group in group_list:
            kernel.groups.join(group, pid)

    # VM-flush migrations hand over the pagers instead of copying pages:
    # attach them with every page non-resident, to be faulted in from the
    # file server on demand (paper §3.2).
    pagers = bundle.get("pagers")
    if pagers:
        for ordinal, pager in pagers.items():
            pager.attach(shell.spaces[ordinal], resident=False)

    # Re-arm interrupted Delays.
    now = kernel.sim.now
    for pdesc in bundle["processes"]:
        if pdesc["state"] is ProcessState.DELAYING:
            stub = shell.find_process(pdesc["index"])
            remaining = max(0, pdesc["delay_deadline"] - now)
            kernel.sim.schedule(remaining, kernel.scheduler._delay_done, stub)

    kernel.unfreeze_logical_host(shell)
    if kernel.model.eager_rebind:
        # The §3.1.4 optimization: broadcast the new binding at unfreeze
        # instead of waiting for every peer to time out and re-query.
        kernel.ipc.announce_binding(shell.lhid)
    if kernel.sim.trace.active:
        kernel.sim.trace.record("migration", "installed", lhid=shell.lhid, host=kernel.name)
    return Message("installed", lhid=shell.lhid)


def _h_destroy_lh(kernel, sender, msg):
    lh = kernel.logical_hosts.get(msg["lhid"])
    if lh is None:
        return Message("ks-error", error="no such logical host")
    kernel.destroy_logical_host(lh, migrated=msg.get("migrated", False))
    return Message("ok")


def _cost_install_state(kernel, msg):
    """The paper's 14 ms + 9 ms per process and address space (§4.1)."""
    bundle = msg["bundle"]
    shell = kernel.logical_hosts.get(msg["temp_lhid"])
    n_spaces = len(shell.spaces) if shell is not None else 0
    return kernel.model.kernel_state_copy_us(len(bundle["processes"]), n_spaces)


_COSTS = {
    "create-shell": lambda kernel, msg: SHELL_INIT_US,
    "install-state": _cost_install_state,
}

_HANDLERS = {
    "query-process": _h_query_process,
    "query-load": _h_query_load,
    "query-utilization": _h_query_utilization,
    "get-time": _h_get_time,
    "destroy-process": _h_destroy_process,
    "set-priority": _h_set_priority,
    "suspend": _h_suspend,
    "resume": _h_resume,
    "freeze": _h_freeze,
    "unfreeze": _h_unfreeze,
    "create-shell": _h_create_shell,
    "install-state": _h_install_state,
    "destroy-lh": _h_destroy_lh,
}
