"""The stable top-level facade: one import for the common workflow.

Everything a typical experiment touches -- build a cluster, execute
programs under a placement policy, sweep configurations, and report or
diff the results -- re-exported from one place::

    from repro.api import (build_cluster, ExecSpec, RandomK,
                           exec_program, wait_program)

    cluster = build_cluster(n_workstations=8)

    def session(ctx):
        handle = yield from exec_program(
            ctx, ExecSpec("cc68", ("prog.c",), where="*", policy=RandomK()))
        code = yield from wait_program(ctx, handle)

The deeper layers (:mod:`repro.kernel`, :mod:`repro.ipc`,
:mod:`repro.migration`, ...) remain importable directly; this module
only promises that the names below stay put across releases.  See
``docs/API.md`` for the guided tour.
"""

from __future__ import annotations

# Cluster assembly and host selection.
from repro.cluster import (
    Cluster,
    build_cluster,
    install_load_balancer,
    FirstResponder,
    HostDigest,
    PlacementPolicy,
    RandomK,
    make_policy,
)

# The execution client surface.
from repro.execution import (
    ExecHandle,
    ExecSpec,
    ProgramContext,
    ProgramImage,
    ProgramRegistry,
    exec_program,
    run_program,
    wait_program,
    write_stdout,
)

# Experiment engine: parallel sweeps.
from repro.parallel import SweepSpec, SweepResult, run_sweep, register_scenario

# Run reports and diffing.
from repro.obs.report import (
    build_migration_report,
    load_report,
    render_report,
    sweep_run_report,
    write_report,
)
from repro.obs.diff import diff_reports, render_diff

# Workloads.
from repro.workloads import standard_registry

__all__ = [
    # cluster + placement
    "Cluster",
    "build_cluster",
    "install_load_balancer",
    "FirstResponder",
    "HostDigest",
    "PlacementPolicy",
    "RandomK",
    "make_policy",
    # execution
    "ExecHandle",
    "ExecSpec",
    "ProgramContext",
    "ProgramImage",
    "ProgramRegistry",
    "exec_program",
    "run_program",
    "wait_program",
    "write_stdout",
    # sweeps
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "register_scenario",
    # reports
    "build_migration_report",
    "load_report",
    "render_report",
    "sweep_run_report",
    "write_report",
    "diff_reports",
    "render_diff",
    # workloads
    "standard_registry",
]
