"""The per-workstation kernel.

Owns the process/logical-host tables, the scheduler, the IPC transport,
group memberships and the binding cache; provides the process- and
memory-management operations that the kernel-server process exposes via
IPC.  A functionally identical kernel runs on every workstation
(paper §2.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import DEFAULT_MODEL, HardwareModel
from repro.errors import (
    KernelError,
    NoSuchLogicalHostError,
    NoSuchProcessError,
    OutOfMemoryError,
)
# Module-style imports: repro.ipc and repro.kernel reference each other
# (ipc needs pids/PCBs, the kernel owns a transport); importing the
# modules rather than names keeps either entry point cycle-safe.
import repro.ipc.binding_cache as _binding_cache
import repro.ipc.groups as _groups
import repro.ipc.transport as _transport
from repro.kernel.address_space import AddressSpace
from repro.kernel.ids import Pid
from repro.kernel.logical_host import LogicalHost
from repro.kernel.process import Pcb, Priority, ProcessState
from repro.kernel.scheduler import Scheduler


class Kernel:
    """One workstation's kernel instance."""

    #: Cluster-wide allocator for logical-host ids; in the real system
    #: these are made unique by structured allocation, which we model as
    #: a shared counter.
    _next_lhid = 0x0010

    @classmethod
    def allocate_lhid(cls) -> int:
        lhid = cls._next_lhid
        cls._next_lhid += 1
        if lhid >= 0xFFF0:
            raise KernelError("logical-host-id space exhausted")
        return lhid

    @classmethod
    def reset_lhid_allocator(cls) -> None:
        """Restart logical-host-id allocation.  Called when a fresh
        simulated world is built, so that runs are deterministic
        regardless of what other simulations ran in the same process
        (lhids feed pid-derived random-stream names)."""
        cls._next_lhid = 0x0010

    def __init__(self, sim, nic, model: HardwareModel = DEFAULT_MODEL, name: str = ""):
        self.sim = sim
        self.nic = nic
        self.model = model
        self.name = name or f"host-{nic.address}"
        self.logical_hosts: Dict[int, LogicalHost] = {}
        self.binding_cache = _binding_cache.BindingCache(sim)
        self.groups = _groups.GroupTable()
        self.scheduler = Scheduler(sim, self, model)
        self.ipc = _transport.Transport(sim, self, nic, model)
        #: Installed by the Workstation at boot.
        self.kernel_server_pcb: Optional[Pcb] = None
        self.program_manager_pcb: Optional[Pcb] = None
        #: Installed by the cluster builder: the shared program-image
        #: registry, the boot-configured file server pid, and the
        #: services-layer ProgramManager object.
        self.program_registry = None
        self.file_server_pid = None
        self.program_manager = None
        #: Memory accounting.
        self.memory_bytes = model.workstation_memory_bytes
        self.memory_used = 0
        #: Programs that crashed (body raised), for post-mortem tests.
        self.faulted: List[Pcb] = []
        self.alive = True
        # Unified-observability instruments (see repro.obs): recorded
        # only while sim.metrics is enabled.
        m = sim.metrics
        self.metrics = m
        self._m_created = m.counter("kernel.processes_created", self.name)
        self._m_destroyed = m.counter("kernel.processes_destroyed", self.name)
        self._m_faults = m.counter("kernel.process_faults", self.name)
        self._m_freezes = m.counter("kernel.freezes", self.name)
        self._m_unfreezes = m.counter("kernel.unfreezes", self.name)
        self._m_memory = m.gauge("kernel.memory_used_bytes", self.name)
        self.binding_cache.bind_metrics(m, self.name)

    # ------------------------------------------------------------- lookups

    def hosts_lhid(self, lhid: int) -> bool:
        """Whether this workstation currently hosts the logical host."""
        return lhid in self.logical_hosts

    def find_pcb(self, pid: Pid) -> Optional[Pcb]:
        """Resolve a (non-group) pid to a local PCB, if hosted here."""
        lh = self.logical_hosts.get(pid.logical_host_id)
        if lh is None:
            return None
        return lh.find_process(pid.local_index)

    def require_pcb(self, pid: Pid) -> Pcb:
        """Resolve or raise."""
        pcb = self.find_pcb(pid)
        if pcb is None:
            raise NoSuchProcessError(f"{pid} is not hosted on {self.name}")
        return pcb

    def all_processes(self) -> List[Pcb]:
        """Every live PCB on this workstation."""
        out = []
        for lhid in sorted(self.logical_hosts):
            out.extend(self.logical_hosts[lhid].live_processes())
        return out

    # ------------------------------------------------------ logical hosts

    def create_logical_host(self, lhid: Optional[int] = None) -> LogicalHost:
        """Create (and host) a new logical host."""
        if lhid is None:
            lhid = Kernel.allocate_lhid()
        if lhid in self.logical_hosts:
            raise KernelError(f"{self.name} already hosts lhid {lhid:#x}")
        lh = LogicalHost(lhid, kernel=self)
        self.logical_hosts[lhid] = lh
        return lh

    def change_lhid(self, lh: LogicalHost, new_lhid: int) -> None:
        """Re-key a hosted logical host (the migration id swap, §3.1.1:
        the new copy is created under a different id which is changed to
        the original id once kernel state is transferred)."""
        if self.logical_hosts.get(lh.lhid) is not lh:
            raise NoSuchLogicalHostError(f"{lh!r} is not hosted on {self.name}")
        if new_lhid in self.logical_hosts:
            raise KernelError(f"lhid {new_lhid:#x} already hosted on {self.name}")
        del self.logical_hosts[lh.lhid]
        old = lh.lhid
        lh.lhid = new_lhid
        self.logical_hosts[new_lhid] = lh
        for pcb in lh.processes.values():
            pcb.pid = Pid(new_lhid, pcb.pid.local_index)
        if self.sim.invariants is not None:
            self.sim.invariants.note_runnable()
        if self.sim.trace.active:
            self.sim.trace.record("kernel", "change-lhid", old=old, new=new_lhid)

    def destroy_logical_host(self, lh: LogicalHost, migrated: bool = False) -> None:
        """Tear down a logical host.

        With ``migrated=True`` this is the post-transfer delete of the old
        copy: queued-unreceived messages are discarded and their senders
        prompted to retransmit toward the new copy (paper §3.1.3).
        """
        if self.logical_hosts.get(lh.lhid) is not lh:
            raise NoSuchLogicalHostError(f"{lh!r} is not hosted on {self.name}")
        if migrated and self.kernel_server_pcb is not None:
            self.ipc.nak_deferred(lh.drain_deferred(), self.kernel_server_pcb.pid)
        if migrated and self.program_manager is not None:
            self.program_manager.on_lh_migrated_away(lh.lhid)
        for pcb in list(lh.processes.values()):
            if migrated:
                pcb.state = ProcessState.DEAD
                self.ipc.discard_queued_for(pcb)
                # The PCB object itself lives on at the new host; just
                # unhook it from this kernel's scheduler and groups.
                self.scheduler.on_destroy(pcb)
                self.groups.leave_all(pcb.pid)
                lh.processes.pop(pcb.pid.local_index, None)
            else:
                self.destroy_process(pcb, exit_code=-1)
        for space in list(lh.spaces):
            self.free_space(lh, space)
        del self.logical_hosts[lh.lhid]

    # ---------------------------------------------------------- processes

    def create_process(
        self,
        lh: LogicalHost,
        body,
        space: Optional[AddressSpace] = None,
        priority: Priority = Priority.LOCAL,
        name: str = "",
        start: bool = True,
    ) -> Pcb:
        """Create a process in ``lh`` running ``body``.

        With ``start=False`` the process is created blocked, as V creates
        program initial processes "awaiting reply from the creator"
        (paper §2.1); the creator's Reply starts it.
        """
        if space is None:
            if not lh.spaces:
                raise KernelError("logical host has no address space for the process")
            space = lh.spaces[0]
        index = lh.allocate_index()
        pid = Pid(lh.lhid, index)
        pcb = Pcb(pid, lh, space, body, priority, name)
        pcb.done_event = self.sim.event(f"done:{pcb.name}")
        lh.add_process(pcb)
        if self.metrics.active:
            self._m_created.inc()
        if start:
            self.scheduler.make_ready(pcb)
        return pcb

    def destroy_process(self, pcb: Pcb, exit_code: int = 0) -> None:
        """Terminate a process and release its kernel state."""
        if not pcb.alive:
            return
        pcb.state = ProcessState.DEAD
        pcb.exit_code = exit_code
        self.scheduler.on_destroy(pcb)
        self.ipc.purge_process(pcb)
        self.groups.leave_all(pcb.pid)
        lh = pcb.logical_host
        if lh is not None:
            lh.processes.pop(pcb.pid.local_index, None)
            # Release the address space if no other live process shares
            # it (a compiler phase exiting inside cc68's logical host
            # must not leave its space allocated, §3 footnote 6).
            if pcb.space in lh.spaces and not any(
                p.alive and p.space is pcb.space
                for p in lh.processes.values()
            ):
                self.free_space(lh, pcb.space)
        if pcb.done_event is not None and not pcb.done_event.triggered:
            pcb.done_event.trigger(exit_code)
        if self.metrics.active:
            self._m_destroyed.inc()
        if self.sim.trace.active:
            self.sim.trace.record("kernel", "destroy", pid=str(pcb.pid), name=pcb.name,
                                  host=self.name)

    def on_process_fault(self, pcb: Pcb, exc: Exception) -> None:
        """A program body raised: the program crashed."""
        self.faulted.append(pcb)
        if self.metrics.active:
            self._m_faults.inc()
        if self.sim.trace.active:
            self.sim.trace.record("kernel", "fault", name=pcb.name, error=repr(exc),
                                  host=self.name)
        self.destroy_process(pcb, exit_code=-1)
        if self.sim.strict:
            raise KernelError(f"program {pcb.name} crashed: {exc!r}") from exc

    def set_priority(self, pcb: Pcb, priority: Priority) -> None:
        """Change a process's scheduling priority, re-queuing it so the
        change takes effect immediately (a demoted runner yields to
        waiting peers; a promoted waiter preempts)."""
        if not pcb.alive:
            return
        priority = Priority(priority)
        if priority == pcb.priority:
            return
        scheduler = self.scheduler
        was_running = scheduler.running is pcb
        was_queued = pcb.state is ProcessState.READY and not pcb.wake_pending
        if was_running or was_queued:
            scheduler.on_destroy(pcb)  # pull out of the run/ready sets
            pcb.priority = priority
            pcb.state = ProcessState.READY
            scheduler.make_ready(pcb, pcb.resume_value, pcb.resume_throw)
        else:
            pcb.priority = priority

    def suspend_process(self, pcb: Pcb) -> None:
        """Stop scheduling a process until resumed (the paper's program
        suspension facility, §2).

        Suspension is an overlay, not a state: a process suspended while
        awaiting a reply keeps its blocked state, and the arriving reply
        is *held* (wake_pending) rather than waking it.
        """
        if not pcb.alive or pcb.suspended:
            return
        pcb.suspended = True
        if pcb.state in (ProcessState.READY, ProcessState.RUNNING):
            self.scheduler.on_destroy(pcb)  # removes from queues / running
            pcb.state = ProcessState.READY
            pcb.wake_pending = True

    def resume_process(self, pcb: Pcb) -> None:
        """Undo :meth:`suspend_process`: deliver any wakeup that arrived
        during the suspension."""
        if not pcb.alive or not pcb.suspended:
            return
        pcb.suspended = False
        if pcb.wake_pending and not pcb.frozen:
            pcb.wake_pending = False
            self.scheduler.make_ready(pcb, pcb.resume_value, pcb.resume_throw)

    # -------------------------------------------------------------- memory

    def allocate_space(
        self,
        lh: LogicalHost,
        size_bytes: int,
        code_bytes: int = 0,
        data_bytes: int = 0,
        name: str = "",
    ) -> AddressSpace:
        """Allocate physical memory for a new address space in ``lh``."""
        if self.memory_used + size_bytes > self.memory_bytes:
            raise OutOfMemoryError(
                f"{self.name}: {size_bytes} bytes requested, "
                f"{self.memory_bytes - self.memory_used} free"
            )
        space = AddressSpace(size_bytes, code_bytes, data_bytes, name)
        self.memory_used += size_bytes
        if self.metrics.active:
            self._m_memory.set(self.memory_used)
        lh.add_space(space)
        return space

    def free_space(self, lh: LogicalHost, space: AddressSpace) -> None:
        """Release an address space's memory."""
        lh.remove_space(space)
        self.memory_used -= space.size_bytes

    @property
    def memory_free(self) -> int:
        """Unreserved physical memory."""
        return self.memory_bytes - self.memory_used

    # ------------------------------------------------------------ freezing

    def freeze_logical_host(self, lh: LogicalHost) -> None:
        """Suspend execution of, and external interactions with, every
        process of the logical host (paper §3.1)."""
        if lh.frozen:
            raise KernelError(f"{lh!r} is already frozen")
        lh.frozen = True
        self.scheduler.on_freeze(lh)
        if self.metrics.active:
            self._m_freezes.inc()
        if self.sim.trace.active:
            self.sim.trace.record("kernel", "freeze", lhid=lh.lhid, host=self.name)

    def unfreeze_logical_host(self, lh: LogicalHost) -> None:
        """Resume a frozen logical host (after migration failure, or at
        the destination after a successful transfer)."""
        if not lh.frozen:
            raise KernelError(f"{lh!r} is not frozen")
        lh.frozen = False
        if self.sim.invariants is not None:
            self.sim.invariants.note_runnable()
        self.scheduler.on_unfreeze(lh)
        for pcb in lh.live_processes():
            self.ipc.deliver_queued(pcb)
        if self.metrics.active:
            self._m_unfreezes.inc()
        if self.sim.trace.active:
            self.sim.trace.record("kernel", "unfreeze", lhid=lh.lhid, host=self.name)

    # ---------------------------------------------------------------- load

    def load_summary(self) -> Dict[str, int]:
        """The load report a program manager answers queries with."""
        program_processes = 0
        remote_processes = 0
        for lh in self.logical_hosts.values():
            for pcb in lh.processes.values():
                if pcb.alive and pcb.priority >= Priority.LOCAL:
                    program_processes += 1
                    if pcb.priority == Priority.REMOTE:
                        remote_processes += 1
        return {
            "ready": self.scheduler.ready_count(max_priority=Priority.LOCAL),
            "programs": program_processes,
            "remote": remote_processes,
            "memory_free": self.memory_free,
        }

    # --------------------------------------------------------------- crash

    def crash(self) -> None:
        """Power the workstation off abruptly: all state is lost and the
        NIC goes silent.  Used by failure-injection experiments."""
        self.alive = False
        self.nic.remove_handler()
        if self.nic.ethernet is not None:
            self.nic.ethernet.detach(self.nic)
        for lh in list(self.logical_hosts.values()):
            for pcb in list(lh.processes.values()):
                pcb.state = ProcessState.DEAD
        self.logical_hosts.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel {self.name} lhs={sorted(self.logical_hosts)}>"
