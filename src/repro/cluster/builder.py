"""Build a complete simulated V installation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import DEFAULT_MODEL, HardwareModel
from repro.errors import SimulationError
from repro.execution.environment import ProgramContext
from repro.execution.program import ProgramRegistry
from repro.kernel.machine import Workstation
from repro.kernel.process import Pcb, Priority
from repro.net.ethernet import Ethernet
from repro.net.loss import LossModel
from repro.services.display_server import DisplayServer, install_display_server
from repro.services.file_server import FileServer, install_file_server
from repro.services.name_server import NameServer, install_name_server
from repro.services.program_manager import (
    AcceptPolicy,
    ProgramManager,
    install_program_manager,
)
from repro.sim.engine import Simulator


@dataclass
class Cluster:
    """A built cluster: simulator, network, machines and services."""

    sim: Simulator
    net: Ethernet
    model: HardwareModel
    registry: ProgramRegistry
    workstations: List[Workstation] = field(default_factory=list)
    file_servers: List[FileServer] = field(default_factory=list)
    name_servers: List[NameServer] = field(default_factory=list)
    displays: Dict[str, DisplayServer] = field(default_factory=dict)
    program_managers: Dict[str, ProgramManager] = field(default_factory=dict)
    #: Dedicated server machines (file/name servers run here).
    server_machines: List[Workstation] = field(default_factory=list)

    def station(self, name: str) -> Workstation:
        """A workstation by name."""
        for ws in self.workstations:
            if ws.name == name:
                return ws
        raise SimulationError(f"no workstation named {name!r}")

    def pm(self, name: str) -> ProgramManager:
        """A program manager by workstation name."""
        return self.program_managers[name]

    def run(self, until_us: Optional[int] = None) -> int:
        """Advance the simulation."""
        return self.sim.run(until_us=until_us)

    # ------------------------------------------------------------- sessions

    def make_context(self, session_pcb: Pcb, home: Optional[str] = None) -> ProgramContext:
        """A fully populated execution environment for a user session
        process (the shell's own context, from which programs inherit)."""
        home_name = home or session_pcb.logical_host.kernel.name
        display = self.displays.get(home_name)
        name_cache = {
            "file-server": self.file_servers[0].pcb.pid,
            "name-server": self.name_servers[0].pcb.pid,
        }
        if display is not None:
            name_cache["display"] = display.pcb.pid
        return ProgramContext(
            self_pid=session_pcb.pid,
            stdout=display.pcb.pid if display is not None else None,
            name_cache=name_cache,
            home=home_name,
            sim=self.sim,
            program_managers=self.program_managers,
        )

    def spawn_session(self, workstation: Workstation, body_factory, name: str = "session") -> Pcb:
        """Run a user-session body (e.g. a shell script) on a workstation.

        ``body_factory(ctx)`` receives a populated :class:`ProgramContext`
        once the session process exists.
        """
        kernel = workstation.kernel
        lh = kernel.create_logical_host()
        kernel.allocate_space(lh, 64 * 1024, name=f"{name}-space")

        def _session_boot():
            # Deferred so the context can reference the session's own pid.
            yield from body_factory(self.make_context(pcb, home=workstation.name))

        pcb = kernel.create_process(lh, _session_boot(), priority=Priority.LOCAL, name=name)
        return pcb

    # ------------------------------------------------------------- failures

    def reboot_workstation(self, name: str) -> Workstation:
        """Crash and re-boot a workstation: all its state is lost, then a
        fresh kernel comes up at the same address with the standard
        services reinstalled.  Programs that migrated *off* the machine
        earlier are unaffected (paper §3.3's point); logical hosts that
        lived there are gone, and their pids stop resolving."""
        from repro.services.display_server import install_display_server
        from repro.services.program_manager import install_program_manager

        old = self.station(name)
        policy = old.kernel.program_manager.policy if old.kernel.program_manager else None
        old.crash()
        fresh = Workstation(self.sim, old.index, self.net, self.model, name=name)
        self.workstations[self.workstations.index(old)] = fresh
        self.displays[name] = install_display_server(fresh)
        self.program_managers[name] = install_program_manager(fresh, policy)
        fresh.kernel.program_registry = self.registry
        fresh.kernel.file_server_pid = self.file_servers[0].pcb.pid
        return fresh

    # -------------------------------------------------------------- metrics

    def idle_fraction(self) -> float:
        """Fraction of workstation CPU that has been idle so far."""
        if not self.workstations or self.sim.now == 0:
            return 1.0
        busy = sum(ws.kernel.scheduler.busy_us for ws in self.workstations)
        return 1.0 - busy / (self.sim.now * len(self.workstations))


def build_cluster(
    n_workstations: int = 4,
    n_file_servers: int = 1,
    seed: int = 0,
    model: HardwareModel = DEFAULT_MODEL,
    registry: Optional[ProgramRegistry] = None,
    loss: Optional[LossModel] = None,
    faults=None,
    accept_policy: Optional[AcceptPolicy] = None,
    perturber=None,
) -> Cluster:
    """Assemble a cluster: ``n_workstations`` user machines plus
    ``n_file_servers`` dedicated server machines, all booted with their
    standard per-host services.  ``faults`` installs a
    :class:`repro.faults.FaultPlane` on the Ethernet (the composable
    superset of ``loss``).  ``perturber`` goes to the
    :class:`Simulator` (see :mod:`repro.verify.perturb`)."""
    if n_workstations < 1 or n_file_servers < 1:
        raise SimulationError("need at least one workstation and one file server")
    sim = Simulator(seed=seed, perturber=perturber)
    net = Ethernet(sim, model, loss=loss, faults=faults)
    registry = registry if registry is not None else ProgramRegistry()
    cluster = Cluster(sim=sim, net=net, model=model, registry=registry)

    index = 0
    for _ in range(n_workstations):
        ws = Workstation(sim, index, net, model, name=f"ws{index}")
        cluster.workstations.append(ws)
        index += 1
    server_machines = []
    for i in range(n_file_servers):
        machine = Workstation(sim, index, net, model, name=f"fileserver{i}")
        server_machines.append(machine)
        index += 1

    for i, machine in enumerate(server_machines):
        cluster.file_servers.append(install_file_server(machine, registry))
        if i == 0:
            cluster.name_servers.append(install_name_server(machine))

    for ws in cluster.workstations:
        cluster.displays[ws.name] = install_display_server(ws)
        pm = install_program_manager(ws, accept_policy)
        cluster.program_managers[ws.name] = pm

    # Boot configuration every kernel gets: the registry and a default
    # file server (in V terms, learned at boot from the name service).
    fs_pid = cluster.file_servers[0].pcb.pid
    for machine in cluster.workstations + server_machines:
        machine.kernel.program_registry = registry
        machine.kernel.file_server_pid = fs_pid
    cluster.server_machines.extend(server_machines)
    return cluster
