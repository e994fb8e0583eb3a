"""Fuzzing the shell: arbitrary (token-valid) scripts never crash the
cluster -- errors surface as shell output lines, not kernel faults."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.shell import Shell
from repro.workloads import standard_registry

programs = st.sampled_from(["tex", "make", "longsim", "nonexistent"])
targets = st.sampled_from(["", "@ ws0", "@ ws1", "@ *", "@ ghost-host"])
builtins = st.sampled_from([
    "hosts", "ps", "ps ws1", "migrateprog", "migrations",
    "wait %1", "kill %1", "suspend %1", "resume %1", "kill %9",
])
garbage = st.sampled_from(["@", "@ x y z", "&", "tex @@ ws1", "# comment", ""])


def command_lines():
    exec_lines = st.builds(
        lambda p, t, bg: f"{p} {t} {'&' if bg else ''}".strip(),
        programs, targets, st.booleans(),
    )
    return st.lists(st.one_of(exec_lines, builtins, garbage),
                    min_size=1, max_size=6)


@given(script=command_lines(), seed=st.integers(0, 500))
# Two makes and a tex on ws1 leave no room for a cc68: make must back
# off and retry the exec, as cc68 does for its phases, not crash.
@example(script=["make @ ws1 &", "tex @@ ws1", "tex", "tex @ ws1 &",
                 "make @ ws1"], seed=0)
@settings(max_examples=15, deadline=None)
def test_random_scripts_never_crash_the_world(script, seed):
    cluster = build_cluster(n_workstations=3, seed=seed,
                            registry=standard_registry(scale=0.05))
    shell = Shell(cluster, "ws0")
    shell.run_script(script)
    cluster.run(until_us=240_000_000)
    # The shell session itself never faulted...
    for ws in cluster.workstations:
        fault_names = [p.name for p in ws.kernel.faulted]
        assert "shell" not in fault_names, (script, fault_names)
    # ...and the services are all still alive.
    for name, pm in cluster.program_managers.items():
        assert pm.pcb.alive, name
