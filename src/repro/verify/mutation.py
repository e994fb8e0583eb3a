"""Planted bugs for mutation smoke: prove the harness can catch one.

A verification harness that has never seen a failure proves nothing.
Each entry in :data:`MUTATIONS` maps a name to a function that breaks
the cluster it is given.  A cell that names a mutation hands it to its
scenario, which applies it to the cluster it builds -- like the toggles,
a mutation is an input of one cluster, never process state.  The
mutation-smoke test runs a matrix with one, asserts the explorer flags
the cells it should, and asserts the minimizer shrinks the failure to
its minimal triple.

``break-rebinding``
    :func:`repro.faults.schedule.break_rebinding` (the same helper
    ``chaos --break-rebinding`` uses): no kernel rebinds a stale
    binding, so the ordering scenario's client keeps sending to the
    migrated server's old host and trips no-residual-dependency in
    every cell, whatever the toggles.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import SimulationError
from repro.faults.schedule import break_rebinding

#: Mutation name -> a function that breaks the cluster it is given.
MUTATIONS: Dict[str, Callable] = {
    "break-rebinding": break_rebinding,
}


def mutation_names() -> List[str]:
    return sorted(MUTATIONS)


def get_mutation(name: str) -> Callable:
    """The named mutation (raises for unknown names)."""
    mutate = MUTATIONS.get(name)
    if mutate is None:
        raise SimulationError(
            f"unknown mutation {name!r}; known: {', '.join(mutation_names())}"
        )
    return mutate
