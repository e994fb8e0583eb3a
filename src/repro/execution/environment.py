"""The network-transparent execution environment (paper §2).

Every program starts with the same environment whether it runs locally
or remotely: its arguments, environment variables, default I/O bound to
*global* server pids, and a name cache of commonly used global names.
Because every entry is a globally valid pid (or the program's own
logical-host-id for the well-known local groups), nothing in the context
binds the program to the workstation it happens to run on -- which is
exactly what makes it migratable without residual dependencies (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.kernel.ids import (
    Pid,
    local_kernel_server_group,
    local_program_manager_group,
)


@dataclass
class ProgramContext:
    """Everything a program body receives at start."""

    #: The program's own pid (so it can hand out references to itself).
    self_pid: Pid
    #: Command-line arguments.
    args: Tuple[str, ...] = ()
    #: Environment variables.
    env: Dict[str, str] = field(default_factory=dict)
    #: Standard output: the pid of a display server (stays co-resident
    #: with its frame buffer; programs reach it via IPC, paper §2).
    stdout: Optional[Pid] = None
    #: Name cache of commonly used global names -> pids (paper §2.1):
    #: "file-server", "name-server", etc.
    name_cache: Dict[str, Pid] = field(default_factory=dict)
    #: The program manager that created this program; exit notices and
    #: wait-for-program rendezvous go here.
    origin_pm: Optional[Pid] = None
    #: The requesting user's home workstation name (for display routing).
    home: str = ""
    #: Whether this execution was requested remotely (affects priority).
    remote: bool = False
    #: The simulator driving this world.  Simulation plumbing, not part
    #: of the modelled V environment: workload bodies use it to derive
    #: named random streams and read the clock.
    sim: Any = None
    #: The cluster's live program-manager table (workstation name ->
    #: :class:`repro.services.program_manager.ProgramManager`), the
    #: roster :class:`repro.cluster.placement.RandomK` samples.  Also
    #: simulation plumbing: the cluster updates it in place when a host
    #: reboots, so a rebooted host's fresh manager is found.
    program_managers: Any = None

    @property
    def kernel_server(self) -> Pid:
        """The kernel server of whichever workstation the program is
        *currently* running on -- a well-known local group, so the same
        value keeps working after migration (paper §2)."""
        return local_kernel_server_group(self.self_pid.logical_host_id)

    @property
    def program_manager(self) -> Pid:
        """The program manager of the current workstation, likewise
        location-independent."""
        return local_program_manager_group(self.self_pid.logical_host_id)

    def server(self, name: str) -> Pid:
        """Look up a global server in the name cache."""
        pid = self.name_cache.get(name)
        if pid is None:
            raise KeyError(f"{name!r} not in the program's name cache")
        return pid

    def rebound_to(self, new_pid: Pid) -> "ProgramContext":
        """A copy of this context for a sub-program at ``new_pid``:
        global entries are inherited, the self pid changes."""
        return ProgramContext(
            self_pid=new_pid,
            args=self.args,
            env=dict(self.env),
            stdout=self.stdout,
            name_cache=dict(self.name_cache),
            origin_pm=self.origin_pm,
            home=self.home,
            remote=self.remote,
            sim=self.sim,
            program_managers=self.program_managers,
        )
