"""Shared test scaffolding: build small clusters of bare workstations
(no services layer) and run process bodies on them.

:func:`make_cluster` is the one factory tests should reach for: bare or
full-service clusters, optional loss/fault planes, and a ``toggles``
vector applied *before* construction (components read the switch blocks
at build time).  Toggles set here are NOT restored by the factory -- the
autouse hygiene fixture in ``tests/conftest.py`` snapshots and restores
both switch blocks around every test, so factories and tests can flip
knobs freely without try/finally boilerplate.

Every cluster the factory builds carries a strict
:class:`~repro.faults.invariants.InvariantChecker` unless the caller
passes ``invariants=False``: a test that breaks single execution,
at-most-once delivery, page-version monotonicity or residual
dependencies fails at the first breach, whatever it asserts itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import DEFAULT_MODEL, HardwareModel
from repro.kernel import Priority, Workstation
from repro.net import Ethernet
from repro.sim import Simulator


class BareCluster:
    """A simulator, an Ethernet, and N bare workstations."""

    def __init__(
        self,
        n: int = 2,
        seed: int = 0,
        model: HardwareModel = DEFAULT_MODEL,
        loss=None,
    ):
        Workstation.reset_world()
        self.sim = Simulator(seed=seed)
        self.model = model
        self.net = Ethernet(self.sim, model, loss=loss)
        self.stations: List[Workstation] = [
            Workstation(self.sim, i, self.net, model) for i in range(n)
        ]
        #: The names the invariant checker walks on a full cluster.
        self.workstations = self.stations
        self.server_machines: List[Workstation] = []

    def spawn_program(
        self,
        station: Workstation,
        body,
        space_bytes: int = 64 * 1024,
        priority: Priority = Priority.LOCAL,
        name: str = "prog",
        lh=None,
    ):
        """Create a one-process program in its own logical host (unless an
        existing logical host is supplied).  Returns (lh, pcb)."""
        kernel = station.kernel
        if lh is None:
            lh = kernel.create_logical_host()
            kernel.allocate_space(lh, space_bytes, name=f"{name}-space")
        pcb = kernel.create_process(lh, body, priority=priority, name=name)
        return lh, pcb

    def run(self, until_us: Optional[int] = None) -> int:
        return self.sim.run(until_us=until_us)


def apply_toggles(toggles: Optional[Dict[str, bool]]) -> None:
    """Set FASTPATH/COPY_PLANE/PLACEMENT knobs by name (unknown names
    raise).  No restore here -- the conftest hygiene fixture owns that."""
    if not toggles:
        return
    from repro._fastpath import knob_block, knob_domains

    domains = knob_domains()
    for name, value in sorted(toggles.items()):
        domain = domains.get(name)
        if domain is None:
            raise ValueError(
                f"unknown toggle {name!r}; known: {', '.join(sorted(domains))}"
            )
        setattr(knob_block(domain), name, bool(value))


def make_cluster(
    n: int = 2,
    *,
    seed: int = 0,
    full: bool = False,
    toggles: Optional[Dict[str, bool]] = None,
    loss=None,
    faults=None,
    registry=None,
    model: HardwareModel = DEFAULT_MODEL,
    invariants: bool = True,
):
    """The parameterized cluster factory.

    ``full=False`` (default) returns a :class:`BareCluster` of ``n``
    bare workstations; ``full=True`` returns a service-booted
    :func:`repro.cluster.build_cluster` with ``n`` workstations (plus
    its file server).  ``toggles`` (knob name -> bool) is applied before
    construction so components see the requested switch positions.
    ``invariants`` (default True) installs a strict invariant checker
    on the cluster's simulator.
    """
    apply_toggles(toggles)
    if full:
        from repro.cluster import build_cluster

        cluster = build_cluster(
            n_workstations=n, seed=seed, model=model,
            registry=registry, loss=loss, faults=faults,
        )
    elif faults is not None or registry is not None:
        raise ValueError("faults/registry need a full cluster (full=True)")
    else:
        cluster = BareCluster(n=n, seed=seed, model=model, loss=loss)
    if invariants:
        from repro.faults import InvariantChecker

        InvariantChecker(cluster, strict=True).install(cluster.sim)
    return cluster
