"""Load balancing via preemption (the paper's §6 future work).

"We have not used the preemption facility to balance the load across
multiple workstations.  At the current level of workstation utilization
... load balancing has not been a problem.  However, increasing use of
distributed execution ... may provide motivation to address this issue."

This module addresses it: a :class:`LoadBalancer` daemon runs as an
ordinary server process, periodically queries every program manager's
load, and when it finds a workstation running more remote programs than
its threshold while idle machines exist, asks the loaded host to migrate
one away.  It is deliberately built *only* from the paper's public
facilities -- load queries, ``migrate-out`` requests and the candidate
query -- demonstrating that the migration mechanism composes into
policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SendTimeoutError
from repro.ipc.messages import Message
from repro.kernel.ids import Pid
from repro.kernel.process import Delay, Pcb, Send
from repro.services.service import install_service


@dataclass
class BalancerPolicy:
    """When the balancer intervenes."""

    #: How often to survey the cluster.
    interval_us: int = 2_000_000
    #: A host is overloaded when it runs more than this many programs.
    overload_threshold: int = 2
    #: A host is a candidate target when it runs fewer than this many.
    underload_threshold: int = 1
    #: Upper bound on migrations triggered per survey round.
    max_moves_per_round: int = 1


@dataclass
class BalancerStats:
    """What the balancer observed and did."""

    rounds: int = 0
    moves_requested: int = 0
    moves_succeeded: int = 0
    moves_failed: int = 0
    #: Hosts dropped from a survey round because they never answered.
    unreachable: int = 0
    #: (time, pid, from_host, to_host) of each successful move.
    history: List[Tuple[int, Pid, str, Optional[str]]] = field(default_factory=list)


class LoadBalancer:
    """A cluster-wide load-balancing daemon."""

    def __init__(self, cluster, policy: Optional[BalancerPolicy] = None):
        self.cluster = cluster
        self.policy = policy or BalancerPolicy()
        self.stats = BalancerStats()
        self.pcb: Optional[Pcb] = None
        self._running = True

    def stop(self) -> None:
        """Ask the daemon to exit after the current round."""
        self._running = False

    # ---------------------------------------------------------------- body

    def body(self):
        """Daemon loop: survey, pick the most loaded host, rebalance.

        The program-manager roster is re-resolved every round: a
        rebooted workstation gets a fresh manager pid, and a roster
        captured once at daemon start would keep surveying the dead one
        forever.  A host that times out is dropped from *this* round
        only; everyone else's answers still count.
        """
        policy = self.policy
        while self._running:
            yield Delay(policy.interval_us)
            self.stats.rounds += 1
            pm_pids = {name: pm.pcb.pid
                       for name, pm in self.cluster.program_managers.items()}
            loads: Dict[str, Message] = {}
            counts: Dict[str, int] = {}
            for name, pm_pid in sorted(pm_pids.items()):
                try:
                    loads[name] = yield Send(pm_pid, Message("query-programs"))
                except SendTimeoutError:
                    self.stats.unreachable += 1
                    continue  # drop the unreachable host from this round
                counts[name] = len(
                    [r for r in loads[name]["rows"] if r["remote"]])
            if not counts:
                continue
            underloaded = [n for n, c in sorted(counts.items())
                           if c < policy.underload_threshold]
            moves = 0
            for name, count in sorted(counts.items(), key=lambda kv: -kv[1]):
                if moves >= policy.max_moves_per_round or not underloaded:
                    break
                if count <= policy.overload_threshold:
                    break  # sorted descending: nobody else is overloaded
                moved = yield from self._move_one_off(pm_pids[name],
                                                      loads[name], name)
                if moved:
                    moves += 1

    def _move_one_off(self, pm_pid: Pid, listing: Message, host: str):
        """Ask ``host`` to migrate one remote program away; returns
        whether a move succeeded (generator)."""
        remote_rows = [r for r in listing["rows"] if r["remote"] and not r["frozen"]]
        if not remote_rows:
            return False
        victim = remote_rows[0]["pid"]
        self.stats.moves_requested += 1
        try:
            reply = yield Send(
                pm_pid,
                Message("migrate-out", pid=victim, destroy_if_stranded=False,
                        dest_pm=None, max_attempts=1),
            )
        except SendTimeoutError:
            self.stats.moves_failed += 1
            return False
        if reply.get("ok"):
            self.stats.moves_succeeded += 1
            self.stats.history.append(
                (self.cluster.sim.now, victim, host, reply.get("dest"))
            )
            return True
        self.stats.moves_failed += 1
        return False


def install_load_balancer(
    cluster,
    workstation_name: str = "ws0",
    policy: Optional[BalancerPolicy] = None,
) -> LoadBalancer:
    """Run a load balancer daemon on the named workstation."""
    balancer = LoadBalancer(cluster, policy)
    balancer.pcb = install_service(
        cluster.station(workstation_name), balancer.body(),
        f"balancer@{workstation_name}",
    )
    return balancer
