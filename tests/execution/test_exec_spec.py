"""The spec-based execution client.

The redesign's core promise: ``exec_program(ctx, ExecSpec(...))`` with
the default FirstResponder policy replays the pre-placement client's
trajectory byte for byte.  The old positional entry points are gone;
their recorded trajectory is pinned below.
"""

import pytest

from repro.execution import ExecSpec, exec_program, run_program, wait_program
from repro.execution.program import ProgramImage, ProgramRegistry
from repro.workloads import standard_registry

from tests.helpers import make_cluster


def run_session(body, n=3, seed=0, registry=None):
    """A fresh cluster with ``body`` as a session on ws0, run to the
    end; returns (cluster, trajectory fingerprint)."""
    cluster = make_cluster(
        n, full=True, seed=seed,
        registry=registry or standard_registry(scale=0.3))
    cluster.spawn_session(cluster.workstations[0], body)
    cluster.run(until_us=600_000_000)
    return cluster, (cluster.sim.now, cluster.sim.event_count,
                     cluster.net.packets_sent)


# ------------------------------------------------------------------ dataclass

def test_exec_spec_defaults():
    spec = ExecSpec("cc68")
    assert spec.where == "local"
    assert spec.args == ()
    assert spec.policy is None
    assert spec.retry_budget == 3
    assert spec.timeout_us is None


def test_wait_program_accepts_bare_pid_or_handle():
    cluster = make_cluster(2, full=True,
                           registry=standard_registry(scale=0.3))
    codes = []

    def body(ctx):
        handle = yield from exec_program(ctx, ExecSpec("cc68",
                                                       args=("x.c",)))
        codes.append((yield from wait_program(ctx, handle)))
        handle = yield from exec_program(ctx, ExecSpec("cc68",
                                                       args=("y.c",)))
        # A bare pid routes the rendezvous through the local group.
        codes.append((yield from wait_program(ctx, handle.pid)))

    cluster.spawn_session(cluster.workstations[0], body)
    cluster.run(until_us=600_000_000)
    assert codes == [0, 0]


# ----------------------------------------------------- old vs new trajectory

#: What the removed positional client produced for the same session --
#: ``exec_program(ctx, "cc68", args=("x.c",), where="*")``, a wait on
#: the ``(pid, pm)`` pair it returned, then a positional exec-and-wait
#: of ``cc68 y.c``: outcomes and (now, event_count, packets_sent).
LEGACY_OUTCOMES = [("<pid 001d:0001>", 0), 0]
LEGACY_FINGERPRINT = (600_000_000, 4598, 659)


def spec_session(outcomes):
    def body(ctx):
        handle = yield from exec_program(
            ctx, ExecSpec("cc68", args=("x.c",), where="*"))
        code = yield from wait_program(ctx, handle)
        outcomes.append((str(handle.pid), code))
        code = yield from run_program(ctx, ExecSpec("cc68", args=("y.c",)))
        outcomes.append(code)
    return body


def test_legacy_and_spec_forms_take_identical_trajectories():
    """The spec path is the old positional client's program: same
    simulated clock, event count, packet count and outcomes as the
    trajectory recorded from it."""
    outcomes = []
    _, fingerprint = run_session(spec_session(outcomes))
    assert outcomes == LEGACY_OUTCOMES
    assert fingerprint == LEGACY_FINGERPRINT


def test_exec_program_rejects_a_bare_program_name():
    """The positional form is gone: anything but an ExecSpec is a
    TypeError naming the type to use."""
    with pytest.raises(TypeError, match="ExecSpec"):
        next(exec_program(None, "cc68"))


# ------------------------------------------------------------ env/io plumbing

def probe_registry(seen):
    def probe_body(ctx):
        seen.append((dict(ctx.env), ctx.stdout))
        return 0
        yield  # pragma: no cover - generator marker

    registry = ProgramRegistry()
    registry.register(ProgramImage(
        name="probe", image_bytes=16 * 1024, space_bytes=64 * 1024,
        code_bytes=8 * 1024, body_factory=probe_body,
    ))
    return registry


def test_spec_env_and_io_reach_the_child_context():
    seen = []
    done = []
    session_pid = []

    def body(ctx):
        session_pid.append(ctx.self_pid)
        code = yield from run_program(ctx, ExecSpec(
            "probe", env={"TERM": "v-term"}, io=ctx.self_pid))
        done.append(code)

    run_session(body, n=2, registry=probe_registry(seen))
    assert done == [0]
    assert seen and seen[0][0].get("TERM") == "v-term"
    assert seen[0][1] == session_pid[0]  # spec.io rebinds the child stdout
