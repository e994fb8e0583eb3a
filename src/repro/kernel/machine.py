"""Workstation assembly: NIC + kernel + kernel server.

A :class:`Workstation` is one bootable simulated machine.  The kernel
server is created at boot; the program manager (a user-level server,
like everything else in V outside the kernel) is installed by
:func:`repro.services.program_manager.install_program_manager`, keeping
the kernel package independent of the services layer.
"""

from __future__ import annotations

from typing import Optional

from repro.config import DEFAULT_MODEL, HardwareModel
from repro.kernel.ids import Pid
from repro.kernel.kernel import Kernel
from repro.kernel.kernel_server import kernel_server_body
from repro.kernel.process import Pcb, Priority
from repro.net.addresses import workstation_address
from repro.net.ethernet import Ethernet
from repro.net.nic import Nic

#: Size of the system logical host's (tiny) address space.
SYSTEM_SPACE_BYTES = 64 * 1024


class Workstation:
    """A simulated diskless SUN workstation on the cluster Ethernet."""

    def __init__(
        self,
        sim,
        index: int,
        ethernet: Ethernet,
        model: HardwareModel = DEFAULT_MODEL,
        name: Optional[str] = None,
    ):
        self.sim = sim
        self.index = index
        self.name = name or f"ws{index}"
        self.nic = Nic(sim, workstation_address(index))
        ethernet.attach(self.nic)
        self.kernel = Kernel(sim, self.nic, model, self.name)
        #: Whether the workstation's owner is actively using it; drives
        #: the program manager's willingness to take remote work and the
        #: owner-reclaim experiments.
        self.owner_active = False

        # The non-migratable system logical host with the kernel server.
        self.system_lh = self.kernel.create_logical_host()
        space = self.kernel.allocate_space(
            self.system_lh, SYSTEM_SPACE_BYTES, name=f"{self.name}-system"
        )
        self.kernel.kernel_server_pcb = self.kernel.create_process(
            self.system_lh,
            kernel_server_body(self.kernel),
            space,
            Priority.SERVER,
            f"{self.name}-kernel-server",
        )

    # ------------------------------------------------------------ accessors

    @property
    def address(self):
        """The workstation's physical network address."""
        return self.nic.address

    @property
    def kernel_server_pid(self) -> Pid:
        """Direct pid of this workstation's kernel server."""
        return self.kernel.kernel_server_pcb.pid

    @property
    def program_manager_pid(self) -> Optional[Pid]:
        """Direct pid of this workstation's program manager, if installed."""
        pcb = self.kernel.program_manager_pcb
        return pcb.pid if pcb is not None else None

    def install_program_manager(self, pcb: Pcb) -> None:
        """Register the program-manager process created by the services
        layer (it must already be running on this kernel)."""
        self.kernel.program_manager_pcb = pcb

    def crash(self) -> None:
        """Power off abruptly (failure injection)."""
        self.kernel.crash()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workstation {self.name} @{self.address}>"
