"""Client library for remote execution (the paper's "standard library
routine that can be directly invoked by arbitrary programs", §2).

These are generator helpers used with ``yield from`` inside a process
body.  The execution protocol mirrors §2.1:

1. the requester selects a program manager -- its own (local), the one
   answering a ``query-host`` for a named machine (``@ machine``), or
   one picked by a placement policy for ``@ *`` (the paper's multicast
   first-responder query by default; cached probing policies from
   :mod:`repro.cluster.placement` by choice);
2. it sends ``create-program``; the program manager builds the address
   space, creates the initial process awaiting its start, and has the
   image loaded from a file server;
3. the requester initializes the new program -- arguments, default I/O,
   environment variables and name cache travel in the start message --
   and starts it in execution.

The client surface is spec-based::

    spec = ExecSpec("cc68", args=("prog.c",), where="*")
    handle = yield from exec_program(ctx, spec)
    code = yield from wait_program(ctx, handle)

or, to run a program to completion in one step,
``code = yield from run_program(ctx, spec)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from repro.errors import (
    ExecutionError,
    NoCandidateHostError,
    NoSuchProcessError,
    SendTimeoutError,
)
from repro.ipc.messages import Message
from repro.kernel.ids import PROGRAM_MANAGER_GROUP, Pid
from repro.kernel.process import Receive, Reply, Send, Touch
from repro.execution.environment import ProgramContext

#: Size of the serialized arguments/environment written into a fresh
#: program space at startup (costs wire time on the start message).
ENV_SEGMENT_BYTES = 1024


@dataclass
class ExecSpec:
    """Everything one program execution needs: what to run, where, and
    under which placement policy.  The single argument of
    :func:`exec_program`."""

    #: Program name (looked up in the cluster's program registry).
    program: str
    #: Command-line arguments.
    args: Tuple[str, ...] = ()
    #: Host selector: ``"local"``, ``"*"`` (policy-placed), or a
    #: workstation name (the shell's ``@ machine``).
    where: str = "local"
    #: Placement policy for ``where="*"``: an instance/class/name from
    #: :mod:`repro.cluster.placement`, or None for the default
    #: (FirstResponder, or RandomK under ``PLACEMENT.probe_placement``).
    policy: Any = None
    #: Run inside an existing logical host (sub-programs "typically
    #: execute within a single logical host", §3).
    lhid: Optional[int] = None
    #: Memory the candidate/admission checks should account for.
    memory_needed: int = 0
    #: Placement attempts for ``where="*"`` before giving up.
    retry_budget: int = 3
    #: Simulated-µs budget for placement retries (None = no deadline).
    timeout_us: Optional[int] = None
    #: Extra environment variables for the child (None = inherit).
    env: Optional[Dict[str, str]] = None
    #: Standard-output override: a display-server pid (None = inherit).
    io: Optional[Pid] = None


@dataclass
class ExecHandle:
    """What :func:`exec_program` returns: enough to wait on the program
    and to account for how it was placed."""

    #: The new program's pid.
    pid: Pid
    #: The program manager that created it (wait rendezvous hint).
    origin_pm: Pid
    #: Workstation it started on (when known).
    host: Optional[str] = None
    #: The program name, for reports.
    program: str = ""
    #: Placement policy that picked the host.
    policy: str = "local"
    #: Placement attempts used (1 = first choice stuck).
    attempts: int = 1
    #: sim.now when the exec was requested / when the program started.
    requested_at: int = 0
    started_at: int = 0


def boot_body(body_factory):
    """The standard prologue wrapped around every program body.

    The initial process waits for its creator's start message (carrying
    the :class:`ProgramContext`), acknowledges it, writes its arguments
    and environment into its address space, runs the program, and finally
    reports its exit to the program manager that created it so that
    ``wait-program`` rendezvous complete.
    """
    sender, start = yield Receive()
    ctx: ProgramContext = start["context"]
    yield Reply(sender, Message("program-started"))
    # Materialize args/env/name-cache in our own address space: this is
    # program state now, so it migrates with us (paper §3.3).
    yield Touch(0, ENV_SEGMENT_BYTES)
    try:
        code = yield from body_factory(ctx)
        code = code if isinstance(code, int) else 0
        crashed = None
    except Exception as exc:  # noqa: BLE001 - the program crashed
        code, crashed = -1, exc
    # Report the exit to the program manager of whatever workstation we
    # are running on *now*: the well-known local group follows the
    # program across migrations, so this never touches the old host
    # (paper §3.3: program-manager state is part of the migrated state).
    # Crashes are reported too -- anyone blocked in wait-program must be
    # released, not left hanging on reply-pending packets forever.
    try:
        yield Send(
            ctx.program_manager,
            Message("program-exited", pid=ctx.self_pid, code=code),
        )
    except (SendTimeoutError, NoSuchProcessError):
        pass  # no manager left to notify
    if crashed is not None:
        raise crashed
    return code


def select_candidate_host(memory_needed: int = 0):
    """``@ *``: multicast a candidate query to the program-manager group
    and take the first response (generator; returns the reply Message
    with ``pm``, ``host``, ``load`` fields)."""
    try:
        reply = yield Send(
            PROGRAM_MANAGER_GROUP,
            Message("find-candidates", memory_needed=memory_needed),
        )
    except SendTimeoutError:
        raise NoCandidateHostError("no workstation answered the candidate query")
    return reply


def query_host_by_name(hostname: str):
    """``@ machine``: ask the program-manager group for the named host's
    manager (generator; returns its pid)."""
    try:
        reply = yield Send(
            PROGRAM_MANAGER_GROUP, Message("query-host", hostname=hostname)
        )
    except SendTimeoutError:
        raise ExecutionError(f"no workstation named {hostname!r} responded")
    return reply["pm"]


def _resolve_policy(ctx: ProgramContext, spec: ExecSpec):
    """The placement policy an ``@ *`` exec runs under: the spec's own
    choice, else RandomK when ``PLACEMENT.probe_placement`` is on and a
    cache exists, else the paper's FirstResponder."""
    from repro._fastpath import PLACEMENT
    from repro.cluster.placement import FirstResponder, RandomK, make_policy

    if spec.policy is not None:
        return make_policy(spec.policy)
    if PLACEMENT.probe_placement and ctx.host_cache is not None:
        return RandomK()
    return FirstResponder()


def exec_program(ctx: ProgramContext, spec: ExecSpec):
    """Execute a program described by an :class:`ExecSpec` and return an
    :class:`ExecHandle` (generator helper)::

        handle = yield from exec_program(ctx, ExecSpec("cc68", ("prog.c",),
                                                       where="*"))
    """
    if not isinstance(spec, ExecSpec):
        raise TypeError(
            f"exec_program needs an ExecSpec, got {type(spec).__name__}")
    handle = yield from _exec_spec(ctx, spec)
    return handle


def _exec_spec(ctx: ProgramContext, spec: ExecSpec):
    """The one placement/creation/start loop behind every exec.

    With the default FirstResponder policy this replays the
    pre-placement client byte for byte: the same candidate query, the
    same ``create-program``, the same "bytes requested" retry race, no
    extra messages or delays (the verify matrix's baseline cell proves
    it).  Cache-driven policies add probe messages, admission checks and
    bounded backoff on stale-view declines.
    """
    # A sub-program of a remotely executed program is part of the remote
    # job: it inherits remote status (and with it REMOTE priority) even
    # when spawned on the local machine.
    remote = spec.where != "local" or ctx.remote
    sim = ctx.sim
    placed = spec.where == "*"
    policy = _resolve_policy(ctx, spec) if placed else None
    attempts = spec.retry_budget if placed else 1
    cache = ctx.host_cache
    trace = sim.trace if sim is not None else None
    metrics = sim.metrics if sim is not None else None
    requested_at = sim.now if sim is not None else 0
    deadline = None
    if spec.timeout_us is not None and sim is not None:
        deadline = sim.now + spec.timeout_us
    span = 0
    if trace is not None and placed:
        span = trace.begin_span(
            "placement", f"select:{policy.name}", program=spec.program)
    if metrics is not None and metrics.active:
        metrics.counter("placement.execs").inc()
    reply = None
    used = 0
    exclude: set = set()
    for attempt in range(attempts):
        used = attempt + 1
        selected_host = None
        if spec.where == "local":
            pm: Pid = ctx.program_manager
        elif placed:
            selection = yield from policy.select(ctx, spec, attempt, exclude)
            if selection is None:
                break
            pm, selected_host = selection.pm, selection.host
        else:
            pm = yield from query_host_by_name(spec.where)
            selected_host = spec.where
        request = {
            "program": spec.program, "args": tuple(spec.args),
            "remote": remote, "lhid": spec.lhid,
        }
        if placed and policy.admission:
            request["admission"] = True
            request["memory_needed"] = spec.memory_needed
        try:
            reply = yield Send(pm, Message("create-program", **request))
        except SendTimeoutError:
            if not placed:
                raise
            # The selected host never answered -- crashed, partitioned,
            # or too backlogged to reply in time.  Treat it like a
            # decline: drop it from the cached view and try elsewhere
            # under the same retry/deadline budget.
            reply = None
            if selected_host is not None:
                exclude.add(selected_host)
                if cache is not None:
                    cache.drop(selected_host)
            if metrics is not None and metrics.active:
                metrics.counter("placement.retries").inc()
            if deadline is not None and sim.now >= deadline:
                break
            continue
        if cache is not None:
            cache.observe_reply(reply)
        if reply.kind == "program-created":
            break
        if not placed or not policy.should_retry(spec, reply, attempt):
            break
        # The chosen host refused (admission caught a stale view) or
        # filled up between selection and creation: try elsewhere,
        # excluding it, under the spec's retry/deadline budget.
        refused = reply.get("host") or selected_host
        if refused is not None:
            exclude.add(refused)
        if metrics is not None and metrics.active:
            metrics.counter("placement.retries").inc()
        if deadline is not None and sim.now >= deadline:
            break
        backoff = policy.backoff_us(attempt)
        if backoff:
            from repro.kernel.process import Delay

            yield Delay(backoff)
    if reply is None:
        if span:
            trace.end_span(span, ok=False)
        raise NoCandidateHostError(
            f"placement found no host for {spec.program}")
    if reply.kind != "program-created":
        if span:
            trace.end_span(span, ok=False)
        raise ExecutionError(reply.get("error", "program creation failed"))
    if span:
        trace.end_span(span, ok=True, host=reply.get("host"), attempts=used)
    new_pid: Pid = reply["pid"]
    child_ctx = ctx.rebound_to(new_pid)
    child_ctx.args = tuple(spec.args)
    child_ctx.remote = remote
    child_ctx.origin_pm = reply["origin_pm"]
    if spec.env:
        child_ctx.env.update(spec.env)
    if spec.io is not None:
        child_ctx.stdout = spec.io
    started = yield Send(
        new_pid,
        Message(
            "start-program",
            context=child_ctx,
            extra_bytes=ENV_SEGMENT_BYTES,
        ),
    )
    if started.kind != "program-started":
        raise ExecutionError(f"program {spec.program} failed to start")
    return ExecHandle(
        pid=new_pid, origin_pm=reply["origin_pm"], host=reply.get("host"),
        program=spec.program,
        policy=policy.name if placed else spec.where,
        attempts=used, requested_at=requested_at,
        started_at=sim.now if sim is not None else 0,
    )


def wait_program(ctx: ProgramContext, handle: Union[ExecHandle, Pid]):
    """Block until the program behind ``handle`` exits; returns its exit
    code (generator helper).  Accepts an :class:`ExecHandle` or a bare
    pid."""
    if isinstance(handle, ExecHandle):
        return (yield from _wait_impl(handle.origin_pm, handle.pid))
    return (yield from _wait_impl(None, handle))


def _wait_impl(origin_pm: Optional[Pid], pid: Pid):
    """Block until the program exits; returns its exit code.

    The wait is a deferred-reply rendezvous at the program manager of the
    workstation *currently* running the program (addressed through the
    well-known local group, so the rendezvous follows migrations);
    reply-pending packets keep the waiter alive however long the program
    runs.  A ``retry-elsewhere`` answer means the program migrated while
    we waited: re-send, and the local group routes to its new home.
    ``origin_pm`` is accepted for information only (generator helper).
    """
    from repro.kernel.ids import local_program_manager_group
    from repro.kernel.process import Delay

    group = local_program_manager_group(pid.logical_host_id)
    target = origin_pm if origin_pm is not None else group
    retries = 0
    while True:
        try:
            reply = yield Send(target, Message("wait-program", pid=pid))
        except SendTimeoutError:
            if target == group:
                raise ExecutionError(
                    f"no workstation hosts {pid} and its origin manager is gone"
                )
            target = group
            continue
        if reply.kind == "program-done":
            return reply["code"]
        if reply.kind == "retry-elsewhere":
            retries += 1
            if retries > 100:
                raise ExecutionError(f"lost track of {pid} while waiting")
            target = group
            yield Delay(10_000)
            continue
        raise ExecutionError(reply.get("error", "wait failed"))


def run_program(ctx: ProgramContext, spec: ExecSpec):
    """Execute a spec and wait for its exit code (generator helper)."""
    handle = yield from _exec_spec(ctx, spec)
    code = yield from _wait_impl(handle.origin_pm, handle.pid)
    return code


def write_stdout(ctx: ProgramContext, text: str):
    """Print a line via the (possibly remote) display server (generator)."""
    if ctx.stdout is None:
        return
    yield Send(ctx.stdout, Message("display", text=text))
