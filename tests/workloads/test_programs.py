"""Integration tests for the standard workload programs on a cluster."""

import pytest

from repro.cluster import build_cluster
from repro.execution import ExecSpec, exec_program, run_program, wait_program
from repro.workloads import standard_registry
from repro.workloads.programs import ALL_SPECS, CC68_PHASES


def make_cluster(n=3, scale=0.1, seed=0, **kwargs):
    return build_cluster(
        n_workstations=n, seed=seed, registry=standard_registry(scale=scale), **kwargs
    )


class TestSpecs:
    def test_all_specs_registered(self):
        registry = standard_registry()
        for name in ("make", "cc68", "preprocessor", "parser", "optimizer",
                     "assembler", "linking_loader", "tex", "longsim"):
            assert name in registry

    def test_space_holds_image_and_working_set(self):
        for spec in ALL_SPECS.values():
            assert spec.space_bytes >= spec.image_bytes
            assert spec.base_page * 2048 >= spec.image_bytes
            assert (spec.base_page + spec.model.total_pages) * 2048 <= spec.space_bytes

    def test_phase_order(self):
        assert [s.name for s in CC68_PHASES] == [
            "preprocessor", "parser", "optimizer", "assembler", "linking_loader",
        ]


class TestRunningWorkloads:
    def test_tex_runs_to_completion(self):
        cluster = make_cluster()
        results = []

        def session(ctx):
            code = yield from run_program(ctx, ExecSpec("tex"))
            results.append(code)

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=60_000_000)
        assert results == [0]

    def test_tex_dirties_pages_at_fitted_rate(self):
        from repro.config import PAGE_SIZE
        from repro.workloads import FITTED_MODELS

        cluster = make_cluster(scale=1.0)
        holder = {}

        def session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("tex"))
            holder["pid"] = handle.pid

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=3_000_000)  # tex is mid-run locally
        pcb = cluster.workstations[0].kernel.find_pcb(holder["pid"])
        assert pcb is not None
        space = pcb.space
        # Clear, run 1 s, count dirty working-set pages.
        space.collect_dirty()
        cluster.run(until_us=cluster.sim.now + 1_000_000)
        base = ALL_SPECS["tex"].base_page
        dirty_kb = sum(
            PAGE_SIZE // 1024 for p in space.dirty_pages() if p.index >= base
        )
        expected = FITTED_MODELS["tex"].expected_dirty_kb(1_000_000)
        # Paper: 111.6 KB/s; allow sampling noise.
        assert expected * 0.6 < dirty_kb < expected * 1.4

    def test_cc68_pipeline_runs_all_phases(self):
        cluster = make_cluster()
        results = []

        def session(ctx):
            code = yield from run_program(ctx, ExecSpec("cc68", args=("prog.c",)))
            results.append(code)

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=120_000_000)
        assert results == [0]
        # All five phases were created (plus cc68 and the session).
        pm = cluster.pm("ws0")
        names = {record.name for record in pm.records.values()}
        assert {"preprocessor", "parser", "optimizer", "assembler",
                "linking_loader", "cc68"} <= names

    def test_make_drives_cc68(self):
        cluster = make_cluster()
        results = []

        def session(ctx):
            code = yield from run_program(ctx, ExecSpec("make"))
            results.append(code)

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=120_000_000)
        assert results == [0]

    def test_remote_compilation_while_editing(self):
        """The paper's motivating scenario: compile remotely while the
        user keeps editing locally (§1)."""
        from repro.cluster.owner import Owner

        cluster = make_cluster(n=3)
        owner = Owner(cluster.workstations[0])
        owner.arrive()
        results = []

        def session(ctx):
            code = yield from run_program(ctx, ExecSpec("cc68", args=("x.c",), where="*"))
            results.append(code)

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=120_000_000)
        assert results == [0]
        # The editing owner never noticed: worst burst latency stayed small.
        assert owner.worst_interference_us() < 10_000

    def test_longsim_migrates_cleanly_mid_run(self):
        from repro.migration.migrateprog import migrate_program

        cluster = make_cluster(scale=0.2)
        holder = {}

        def session(ctx):
            handle = yield from exec_program(ctx, ExecSpec("longsim", where="ws1"))
            holder["pid"] = handle.pid
            code = yield from wait_program(ctx, handle)
            holder["code"] = code

        cluster.spawn_session(cluster.workstations[0], session)
        cluster.run(until_us=5_000_000)
        results = []

        def migrator(ctx):
            reply = yield from migrate_program(holder["pid"])
            results.append(reply)

        cluster.spawn_session(cluster.workstations[0], migrator, name="migrator")
        cluster.run(until_us=120_000_000)
        assert results and results[0]["ok"]
        assert holder.get("code") == 0


def test_make_with_multiple_targets():
    """make compiles each named target sequentially (the paper's
    recompile-everything-after-the-fix scenario)."""
    cluster = make_cluster(n=4, scale=0.05)
    results = []

    def session(ctx):
        code = yield from run_program(ctx, ExecSpec("make", args=("a.c", "b.c")))
        results.append(code)

    cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=600_000_000)
    assert results == [0]
    # Two cc68 pipelines actually ran.
    pm = cluster.pm("ws0")
    cc68_records = [r for r in pm.records.values() if r.name == "cc68"]
    assert len(cc68_records) == 2
