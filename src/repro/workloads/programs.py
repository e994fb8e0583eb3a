"""The paper's workload programs as registrable images.

``cc68`` "consists of 5 separate subprograms: a preprocessor, a parser
front-end, an optimizer, an assembler, a linking loader, and a control
program" (footnote 6); ``make`` drives compilations; ``tex`` formats
documents; ``longsim`` stands in for the "very long running simulation
jobs" that §4.3 reports as the main preemption beneficiaries.  Every
program's dirtying behaviour comes from its Table 4-1 fitted model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.config import PAGE_SIZE
from repro.execution.api import ExecSpec, exec_program, wait_program
from repro.execution.program import ProgramImage, ProgramRegistry
from repro.kernel.process import Compute, TouchPages
from repro.workloads.base import dirty_workload_body
from repro.workloads.dirty_model import TwoPoolDirtyModel
from repro.workloads.table41 import FITTED_MODELS


@dataclass(frozen=True)
class WorkloadSpec:
    """Sizing and duration of one workload program."""

    name: str
    image_kb: int
    code_fraction: float
    duration_us: int
    model: TwoPoolDirtyModel

    @property
    def image_bytes(self) -> int:
        return self.image_kb * 1024

    @property
    def code_bytes(self) -> int:
        return int(self.image_bytes * self.code_fraction)

    @property
    def space_bytes(self) -> int:
        """Image plus the model's working set plus stack slack."""
        working = self.model.total_pages * PAGE_SIZE
        return self.image_bytes + working + 16 * 1024

    @property
    def base_page(self) -> int:
        """First page of the dirtyable working set (above the image)."""
        return (self.image_bytes + PAGE_SIZE - 1) // PAGE_SIZE


#: The compiler pipeline, in execution order, with plausible 1985 sizes.
CC68_PHASES: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec("preprocessor", 60, 0.7, 2_000_000, FITTED_MODELS["preprocessor"]),
    WorkloadSpec("parser", 120, 0.7, 4_000_000, FITTED_MODELS["parser"]),
    WorkloadSpec("optimizer", 100, 0.7, 3_000_000, FITTED_MODELS["optimizer"]),
    WorkloadSpec("assembler", 80, 0.7, 2_500_000, FITTED_MODELS["assembler"]),
    WorkloadSpec("linking_loader", 90, 0.7, 2_000_000, FITTED_MODELS["linking_loader"]),
)

#: Control programs and applications.
TEX_SPEC = WorkloadSpec("tex", 300, 0.8, 15_000_000, FITTED_MODELS["tex"])
CC68_SPEC = WorkloadSpec("cc68", 30, 0.8, 1_000_000, FITTED_MODELS["cc68"])
MAKE_SPEC = WorkloadSpec("make", 40, 0.8, 1_000_000, FITTED_MODELS["make"])
LONGSIM_SPEC = WorkloadSpec(
    "longsim", 150, 0.75, 120_000_000, FITTED_MODELS["optimizer"]
)

ALL_SPECS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in CC68_PHASES + (TEX_SPEC, CC68_SPEC, MAKE_SPEC, LONGSIM_SPEC)
}


def _phase_body_factory(spec: WorkloadSpec):
    """A standalone dirty-model program (compiler phase, tex, longsim)."""

    def factory(ctx):
        return dirty_workload_body(
            spec.model, spec.duration_us, base_page=spec.base_page,
            stream=f"wl:{spec.name}",
        )(ctx)

    return factory


def _exec_with_backoff(ctx, spec: ExecSpec, attempts: int = 6):
    """Start a subprogram, retrying while its host is out of memory.

    Transient memory pressure (several compilations sharing a 2 MB
    machine) makes ``exec_program`` raise; the control program backs
    off and retries, like make re-runs.  Returns None once every
    attempt has failed."""
    from repro.errors import ExecutionError
    from repro.kernel.process import Delay

    for _ in range(attempts):
        try:
            return (yield from exec_program(ctx, spec))
        except ExecutionError:
            yield Delay(2_000_000)
    return None


def _cc68_body(ctx):
    """The compiler control program: run the five phases as subprograms
    in our own logical host, doing its own (lightly dirtying)
    bookkeeping while each phase runs."""
    rng = ctx.sim.rand.stream(f"wl:cc68:{ctx.self_pid.as_int():08x}")
    for spec in CC68_PHASES:
        handle = yield from _exec_with_backoff(ctx, ExecSpec(
            spec.name, args=ctx.args, lhid=ctx.self_pid.logical_host_id,
        ))
        if handle is None:
            return 1  # persistently out of memory: compile fails
        code = yield from _wait_with_bookkeeping(
            ctx, handle, CC68_SPEC.model, CC68_SPEC.base_page, rng
        )
        if code != 0:
            return code
    return 0


def _wait_with_bookkeeping(ctx, handle, model, base_page, rng, poll_us=200_000):
    """Wait for a subprogram while staying active: the control program
    keeps polling and updating its own tables, which is why make/cc68
    appear in Table 4-1 with small but nonzero dirty rates.  Polls go to
    the origin program manager, whose records outlive the program."""
    from repro.ipc.messages import Message
    from repro.kernel.process import Delay, Send

    while True:
        yield Compute(2_000)
        pages = model.tick_pages(rng, poll_us, base_page)
        if pages:
            yield TouchPages(pages)
        listing = yield Send(handle.origin_pm, Message("query-programs"))
        if all(row["pid"] != handle.pid for row in listing.get("rows", ())):
            code = yield from wait_program(ctx, handle)
            return code
        yield Delay(poll_us)


def _make_body(ctx):
    """The make control program: one compilation per argument (default
    one), sequentially, like the paper's recompile-after-edit scenario."""
    rng = ctx.sim.rand.stream(f"wl:make:{ctx.self_pid.as_int():08x}")
    targets = ctx.args or ("a.c",)
    for target in targets:
        yield Compute(50_000)  # dependency analysis
        pages = MAKE_SPEC.model.tick_pages(rng, 50_000, MAKE_SPEC.base_page)
        if pages:
            yield TouchPages(pages)
        handle = yield from _exec_with_backoff(
            ctx, ExecSpec("cc68", args=(target,)))
        if handle is None:
            return 1  # persistently out of memory: the build fails
        code = yield from _wait_with_bookkeeping(
            ctx, handle, MAKE_SPEC.model, MAKE_SPEC.base_page, rng
        )
        if code != 0:
            return code
    return 0


def register_standard_programs(
    registry: ProgramRegistry, scale: float = 1.0
) -> ProgramRegistry:
    """Register the paper's workload programs; ``scale`` multiplies every
    duration (e.g. 0.2 for quick tests)."""

    def scaled(spec: WorkloadSpec) -> WorkloadSpec:
        if scale == 1.0:
            return spec
        return WorkloadSpec(
            spec.name, spec.image_kb, spec.code_fraction,
            max(int(spec.duration_us * scale), 100_000), spec.model,
        )

    for spec in CC68_PHASES + (TEX_SPEC, LONGSIM_SPEC):
        spec = scaled(spec)
        registry.register(ProgramImage(
            name=spec.name, image_bytes=spec.image_bytes,
            space_bytes=spec.space_bytes, code_bytes=spec.code_bytes,
            body_factory=_phase_body_factory(spec),
        ))
    registry.register(ProgramImage(
        name="cc68", image_bytes=CC68_SPEC.image_bytes,
        space_bytes=CC68_SPEC.space_bytes, code_bytes=CC68_SPEC.code_bytes,
        body_factory=_cc68_body,
    ))
    registry.register(ProgramImage(
        name="make", image_bytes=MAKE_SPEC.image_bytes,
        space_bytes=MAKE_SPEC.space_bytes, code_bytes=MAKE_SPEC.code_bytes,
        body_factory=_make_body,
    ))
    return registry


def standard_registry(scale: float = 1.0) -> ProgramRegistry:
    """A fresh registry holding all the standard workload programs."""
    return register_standard_programs(ProgramRegistry(), scale)
