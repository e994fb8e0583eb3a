"""Timed fault schedules: host crash-and-reboot and NIC outages.

Where :mod:`repro.faults.models` perturbs individual deliveries, a
schedule perturbs the *cluster* at fixed simulated times: a workstation
powers off and (optionally) reboots, or a NIC drops off the segment for
a window and comes back.  Schedules are plain data, so a chaos
campaign's (schedule, seed) pair fully determines a run -- the schedule
contributes no randomness of its own, keeping the RNG-stream isolation
contract intact.

Both schedules drive existing cluster mechanisms:

* crashes go through ``Workstation.crash`` and reboots through
  ``Cluster.reboot_workstation`` (fresh kernel, same address, standard
  services reinstalled), so everything the paper says about host
  failure (§3.3) holds;
* outages detach the NIC from the Ethernet, so frames in both
  directions vanish like a dead transceiver, then reattach it.

:func:`break_rebinding` is the one untimed perturbation: it switches
lazy rebinding off for the whole run.  It is the planted bug of the
``chaos`` scenario's ``break_rebinding`` input, which ``chaos
--break-rebinding`` and ``verify --break-rebinding`` both set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class CrashEvent:
    """One host failure: crash at ``at_us``; reboot ``down_us`` later
    (``None`` = stays down for the rest of the run)."""

    at_us: int
    host: str
    down_us: Optional[int] = None


@dataclass(frozen=True)
class OutageEvent:
    """One NIC outage window: off the wire for ``duration_us``."""

    at_us: int
    host: str
    duration_us: int


class CrashSchedule:
    """Replays a list of :class:`CrashEvent` against a cluster."""

    def __init__(self, events: List[CrashEvent]):
        self.events = sorted(events, key=lambda e: (e.at_us, e.host))
        #: (time_us, host, "crash" | "reboot") as they are executed.
        self.log: List[Tuple[int, str, str]] = []

    def install(self, cluster) -> "CrashSchedule":
        """Arm every event on the cluster's simulator."""
        sim = cluster.sim
        for event in self.events:
            sim.schedule(event.at_us - sim.now, self._crash, cluster, event)
        return self

    def _crash(self, cluster, event: CrashEvent) -> None:
        station = cluster.station(event.host)
        if not station.kernel.alive:
            return  # already down (overlapping schedule entries)
        station.crash()
        self.log.append((cluster.sim.now, event.host, "crash"))
        if cluster.sim.trace.active:
            cluster.sim.trace.record("faults", "crash", host=event.host)
        if event.down_us is not None:
            cluster.sim.schedule(event.down_us, self._reboot, cluster, event)

    def _reboot(self, cluster, event: CrashEvent) -> None:
        cluster.reboot_workstation(event.host)
        self.log.append((cluster.sim.now, event.host, "reboot"))
        if cluster.sim.trace.active:
            cluster.sim.trace.record("faults", "reboot", host=event.host)


class OutageSchedule:
    """Replays :class:`OutageEvent` windows: the NIC leaves the segment
    (sends and deliveries both vanish), then rejoins."""

    def __init__(self, events: List[OutageEvent]):
        self.events = sorted(events, key=lambda e: (e.at_us, e.host))
        self.log: List[Tuple[int, str, str]] = []

    def install(self, cluster) -> "OutageSchedule":
        sim = cluster.sim
        for event in self.events:
            sim.schedule(event.at_us - sim.now, self._down, cluster, event)
        return self

    def _down(self, cluster, event: OutageEvent) -> None:
        station = cluster.station(event.host)
        nic = station.nic
        if nic.ethernet is None:
            return  # already detached (crash or overlapping window)
        cluster.net.detach(nic)
        nic.ethernet = None
        self.log.append((cluster.sim.now, event.host, "nic-down"))
        if cluster.sim.trace.active:
            cluster.sim.trace.record("faults", "nic-down", host=event.host)
        cluster.sim.schedule(event.duration_us, self._up, cluster, event)

    def _up(self, cluster, event: OutageEvent) -> None:
        # Re-find the station: it may have been rebooted (fresh NIC) or
        # crashed outright during the window -- a dead kernel stays off.
        station = cluster.station(event.host)
        if not station.kernel.alive or station.nic.ethernet is not None:
            return
        cluster.net.attach(station.nic)
        self.log.append((cluster.sim.now, event.host, "nic-up"))
        if cluster.sim.trace.active:
            cluster.sim.trace.record("faults", "nic-up", host=event.host)


def break_rebinding(cluster) -> None:
    """Disable every lazy-rebinding path of ``cluster``: NAK-moved
    handling, the retry-exhausted broadcast re-resolution, and refreshes
    of already-cached bindings from incoming traffic.  The intentionally
    broken mode that must trip no-residual-dependency."""
    for station in cluster.workstations + cluster.server_machines:
        station.kernel.ipc.rebind_enabled = False
        station.kernel.binding_cache.refresh_enabled = False
