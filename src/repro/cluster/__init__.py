"""Cluster assembly and user modelling.

:func:`build_cluster` wires a whole simulated installation together --
workstations, file/name servers, per-host program managers and display
servers -- approximating the paper's environment of "about 25
workstations and server machines" on one Ethernet.  :mod:`owner` models
workstation owners (the interactive users whose machines the pool
borrows), and :mod:`monitor` provides cluster-wide observation helpers.
"""

from repro.cluster.builder import Cluster, build_cluster
from repro.cluster.owner import Owner, OwnerActivityModel
from repro.cluster.monitor import ClusterMonitor
from repro.cluster.balancer import (
    BalancerPolicy,
    LoadBalancer,
    install_load_balancer,
)
from repro.cluster.supervisor import (
    ClusterSupervisor,
    install_cluster_supervisor,
)
from repro.cluster.placement import (
    FirstResponder,
    HostDigest,
    PlacementPolicy,
    RandomK,
    make_policy,
)

__all__ = [
    "Cluster",
    "build_cluster",
    "FirstResponder",
    "HostDigest",
    "PlacementPolicy",
    "RandomK",
    "make_policy",
    "Owner",
    "OwnerActivityModel",
    "ClusterMonitor",
    "ClusterSupervisor",
    "install_cluster_supervisor",
    "LoadBalancer",
    "BalancerPolicy",
    "install_load_balancer",
]
