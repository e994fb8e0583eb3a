"""Unit tests for the generic workload body machinery."""

import pytest

from repro.cluster import build_cluster
from repro.execution import (
    ExecSpec,
    ProgramImage,
    ProgramRegistry,
    exec_program,
    wait_program,
)
from repro.workloads.base import dirty_workload_body, measure_dirty_kb
from repro.workloads.dirty_model import TwoPoolDirtyModel


def make_cluster_with(model, duration_us, base_page=0):
    registry = ProgramRegistry()

    def factory(ctx):
        return dirty_workload_body(model, duration_us, base_page=base_page)(ctx)

    registry.register(ProgramImage(
        name="wl", image_bytes=20 * 1024, space_bytes=256 * 1024,
        code_bytes=16 * 1024, body_factory=factory,
    ))
    return build_cluster(n_workstations=2, registry=registry, seed=3)


def test_body_runs_for_requested_duration():
    model = TwoPoolDirtyModel(4, 50.0, 16, 2.0)
    cluster = make_cluster_with(model, duration_us=2_000_000)
    holder = {}

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec("wl"))
        holder["pid"] = handle.pid
        holder["start"] = ctx.sim.now
        code = yield from wait_program(ctx, handle)
        holder["done"] = ctx.sim.now
        holder["code"] = code

    cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=60_000_000)
    assert holder["code"] == 0
    elapsed = holder["done"] - holder["start"]
    # "start" is captured when the start-reply reaches the requester; the
    # body begins a few ms earlier, so allow that skew.
    assert elapsed >= 1_950_000


def test_body_dirties_only_above_base_page():
    model = TwoPoolDirtyModel(8, 500.0, 8, 100.0)
    cluster = make_cluster_with(model, duration_us=3_000_000, base_page=20)
    holder = {}

    def session(ctx):
        handle = yield from exec_program(ctx, ExecSpec("wl"))
        holder["pid"] = handle.pid

    cluster.spawn_session(cluster.workstations[0], session)
    while "pid" not in holder and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 100_000)
    pcb = cluster.workstations[0].kernel.find_pcb(holder["pid"])
    space = pcb.space
    for page in space.pages:
        page.dirty = False
    cluster.run(until_us=cluster.sim.now + 1_000_000)
    dirty = [p.index for p in space.pages if p.dirty]
    assert dirty
    assert all(20 <= i < 36 for i in dirty)


def test_body_requires_sim_in_context():
    from repro.execution import ProgramContext
    from repro.kernel.ids import Pid

    model = TwoPoolDirtyModel(1, 1.0, 1, 1.0)
    body = dirty_workload_body(model, 1_000_000)
    ctx = ProgramContext(self_pid=Pid(1, 1))  # no sim attached
    with pytest.raises(ValueError):
        next(body(ctx))


def test_measure_dirty_kb_counts_and_clears():
    from repro.config import PAGE_SIZE
    from repro.kernel import AddressSpace

    space = AddressSpace(PAGE_SIZE * 10)
    space.touch_pages([2, 5, 7])
    kb = measure_dirty_kb(None, space, interval_us=0)
    assert kb == 3 * PAGE_SIZE / 1024
    assert space.dirty_pages() == []


def test_measure_dirty_kb_respects_window():
    from repro.config import PAGE_SIZE
    from repro.kernel import AddressSpace

    space = AddressSpace(PAGE_SIZE * 10)
    space.touch_pages([1, 5, 9])
    kb = measure_dirty_kb(None, space, interval_us=0, base_page=4, n_pages=3)
    assert kb == PAGE_SIZE / 1024  # only page 5 is inside [4, 7)
