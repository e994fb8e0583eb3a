"""Composite -- end-to-end cost of ``prog @ *`` (paper §4.1's framing).

"The cost of remotely executing a program can be split into three parts:
selecting a host to use, setting up and later destroying a new execution
environment, and actually loading the program file to run.  The latter
considerably dominates the first two."
"""

from repro.cluster import build_cluster
from repro.execution import ExecSpec, ProgramImage, ProgramRegistry, exec_program
from repro.kernel.process import Compute
from repro.metrics.report import ExperimentReport, register

from _common import run_once, run_until

IMAGE_KB = 100  # the paper's reference size


def _measure():
    registry = ProgramRegistry()

    def body(ctx):
        yield Compute(1_000)
        return 0

    registry.register(ProgramImage(
        name="ref", image_bytes=IMAGE_KB * 1024,
        space_bytes=IMAGE_KB * 1024 + 64 * 1024,
        code_bytes=int(IMAGE_KB * 1024 * 0.8), body_factory=body,
    ))
    cluster = build_cluster(n_workstations=4, registry=registry, seed=8)
    marks = {}

    def session(ctx):
        start = ctx.sim.now
        handle = yield from exec_program(ctx, ExecSpec("ref", where="*"))
        marks["total"] = ctx.sim.now - start

    cluster.spawn_session(cluster.workstations[0], session, name="bench")
    run_until(cluster, lambda: "total" in marks)
    return marks["total"]


def test_remote_exec_end_to_end(benchmark):
    total_us = run_once(benchmark, _measure)
    model_paper = {
        "select host": 23.0,
        "set up environment (half of 40 ms)": 25.0,
        "load 100 KB image": 330.0,
    }
    paper_total = sum(model_paper.values())
    report = ExperimentReport(
        "E0", "end-to-end 'prog @ *' launch (selection + env + load)"
    )
    for name, paper_ms in model_paper.items():
        report.add(name, "ms", paper_ms, None)
    report.add("total to program start", "ms", round(paper_total, 0),
               round(total_us / 1000, 1),
               note="incl. start-message round trip")
    register(report)
    # Loading dominates, as the paper says: the total is load-sized, and
    # within ~25% of the sum of the paper's parts.
    assert 330.0 < total_us / 1000 < paper_total * 1.25
