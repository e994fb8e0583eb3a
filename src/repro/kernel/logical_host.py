"""Logical hosts: the unit of migration.

V groups address spaces and their processes into *logical hosts*; a pid
is ``(logical-host-id, local-index)``, and rebinding a logical host to a
different workstation rebinds every process in it at once (paper §2.1,
§3.1.4).  A logical host is local to a single workstation, but a
workstation hosts many logical hosts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import KernelError, NoSuchProcessError
from repro.kernel.address_space import AddressSpace
from repro.kernel.ids import Pid
from repro.kernel.process import Pcb


class LogicalHost:
    """A migratable group of address spaces and processes."""

    def __init__(self, lhid: int, kernel=None):
        self.lhid = lhid
        #: The kernel currently hosting this logical host (re-parented by
        #: migration's kernel-state transfer).
        self.kernel = kernel
        self.spaces: List[AddressSpace] = []
        self.processes: Dict[int, Pcb] = {}  # local_index -> Pcb
        self.frozen = False
        #: Deferred kernel-server/program-manager requests that would
        #: modify this logical host, queued while frozen (paper §3.1.3).
        self.deferred_requests: List[Any] = []
        self._next_index = 1
        #: True for "shell" hosts created at a migration destination
        #: before the kernel-state transfer lands.
        self.is_shell = False
        #: Residual-dependency bookkeeping: pids this logical host's
        #: processes have sent to (see migration.residual).
        self.contacted_pids = set()

    # ------------------------------------------------------------- spaces

    def add_space(self, space: AddressSpace) -> AddressSpace:
        """Attach an address space to this logical host."""
        self.spaces.append(space)
        return space

    def remove_space(self, space: AddressSpace) -> None:
        """Detach an address space."""
        try:
            self.spaces.remove(space)
        except ValueError:
            raise KernelError(f"{space!r} not in logical host {self.lhid:#x}")

    def total_bytes(self) -> int:
        """Combined size of all address spaces."""
        return sum(s.size_bytes for s in self.spaces)

    # ---------------------------------------------------------- processes

    def allocate_index(self) -> int:
        """A fresh local index for a new process."""
        while self._next_index in self.processes or self._next_index & 0x8000:
            self._next_index += 1
            if self._next_index > 0x7FFF:
                raise KernelError(f"logical host {self.lhid:#x} out of pids")
        index = self._next_index
        self._next_index += 1
        return index

    def add_process(self, pcb: Pcb) -> None:
        """Register a PCB under its local index."""
        index = pcb.pid.local_index
        if index in self.processes:
            raise KernelError(
                f"duplicate local index {index:#x} in logical host {self.lhid:#x}"
            )
        self.processes[index] = pcb
        pcb.logical_host = self
        if self.kernel is not None and self.kernel.sim.invariants is not None:
            self.kernel.sim.invariants.note_runnable()

    def remove_process(self, pcb: Pcb) -> None:
        """Unregister a PCB."""
        if self.processes.get(pcb.pid.local_index) is not pcb:
            raise NoSuchProcessError(f"{pcb.pid} not in logical host {self.lhid:#x}")
        del self.processes[pcb.pid.local_index]

    def find_process(self, local_index: int) -> Optional[Pcb]:
        """The PCB at ``local_index``, or None."""
        return self.processes.get(local_index)

    def live_processes(self) -> List[Pcb]:
        """All PCBs that have not exited, in index order."""
        return [self.processes[i] for i in sorted(self.processes) if self.processes[i].alive]

    def has_live_process(self) -> bool:
        """Whether any PCB has not exited (``live_processes()`` without
        the sort, for callers that only need yes/no)."""
        return any(p.alive for p in self.processes.values())

    def pids(self) -> List[Pid]:
        """Pids of all live processes."""
        return [p.pid for p in self.live_processes()]

    # ------------------------------------------------------------ freezing

    def defer_request(self, record: Any) -> None:
        """Queue a state-modifying request for after the unfreeze."""
        if not self.frozen:
            raise KernelError("defer_request on an unfrozen logical host")
        self.deferred_requests.append(record)

    def drain_deferred(self) -> List[Any]:
        """Take all deferred requests (on unfreeze or after migration)."""
        drained, self.deferred_requests = self.deferred_requests, []
        return drained

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "frozen" if self.frozen else "live"
        shell = " shell" if self.is_shell else ""
        return (
            f"<LogicalHost {self.lhid:#06x} {state}{shell} "
            f"{len(self.processes)}p {len(self.spaces)}s>"
        )
