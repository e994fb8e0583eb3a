"""Process control blocks and the instruction set of simulated programs.

A simulated V process is a Python generator (its *body*) that yields
instruction objects; the per-workstation scheduler interprets them.  The
instruction set mirrors the V kernel interface the paper relies on:

==================  ====================================================
instruction          meaning
==================  ====================================================
:class:`Compute`     consume CPU for N microseconds (preemptible)
:class:`Touch`       load/store a byte range of the own address space
:class:`TouchPages`  load/store whole pages by index
:class:`Send`        blocking V Send; resumes with the reply message
:class:`Receive`     blocking V Receive; resumes with (sender, message)
:class:`Reply`       V Reply to a received-but-unreplied message
:class:`Forward`     V Forward: re-target a received message
:class:`CopyToInstr`   push pages into another process's space (blocking)
:class:`CopyFromInstr` pull page snapshots from another process (blocking)
:class:`Delay`       sleep without using CPU
:class:`Exit`        terminate the process
==================  ====================================================

Send/Receive/Reply and the copy operations are exactly the three ways the
paper says IPC can change a process's state (§3.1.3), which is what makes
the freeze/defer machinery sufficient.
"""

from __future__ import annotations

import enum
import types as _types
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.errors import KernelError
from repro.kernel.ids import Pid


class Priority(enum.IntEnum):
    """Scheduling priorities; numerically lower runs first.

    The ordering encodes two claims from the paper: pre-copy runs "at a
    higher priority than all other programs on the originating host"
    (§3.1.2), and locally invoked programs outrank remotely executed ones
    so a text-editing owner does not notice background jobs (§2).
    """

    MIGRATION = 1
    SERVER = 2
    LOCAL = 4
    REMOTE = 6
    BACKGROUND = 8


class ProcessState(enum.Enum):
    """Lifecycle states of a PCB."""

    READY = "ready"
    RUNNING = "running"
    AWAITING_REPLY = "awaiting-reply"
    RECEIVING = "receiving"
    DELAYING = "delaying"
    SUSPENDED = "suspended"
    DEAD = "dead"


#: Read by ``Pcb.alive`` on every wake-up and dispatch (a module global,
#: not a descriptor call on the enum class).
_DEAD = ProcessState.DEAD


# --------------------------------------------------------------- instructions


@dataclass(frozen=True)
class Compute:
    """Consume ``us`` microseconds of CPU; preemptible at any point."""

    us: int

    def __post_init__(self):
        if self.us < 0:
            raise KernelError(f"negative compute time {self.us}")


@dataclass(frozen=True)
class Touch:
    """Access ``nbytes`` at ``offset`` of the own address space."""

    offset: int
    nbytes: int
    write: bool = True


@dataclass(frozen=True)
class TouchPages:
    """Access whole pages of the own address space by index."""

    indexes: Tuple[int, ...]
    write: bool = True

    def __init__(self, indexes: Iterable[int], write: bool = True):
        object.__setattr__(self, "indexes", tuple(indexes))
        object.__setattr__(self, "write", write)


@dataclass(frozen=True)
class Send:
    """Blocking V Send to a process or group id.

    Resumes with the reply :class:`~repro.ipc.messages.Message` (the first
    one, for group sends), or raises
    :class:`~repro.errors.SendTimeoutError` after retransmissions are
    exhausted.
    """

    dst: Pid
    message: Any


@dataclass(frozen=True)
class Receive:
    """Blocking V Receive; resumes with ``(sender_pid, message)``."""


@dataclass(frozen=True)
class Reply:
    """V Reply to ``dst`` for its outstanding Send."""

    dst: Pid
    message: Any


@dataclass(frozen=True)
class Decline:
    """Drop a received-but-unreplied message without answering.

    Used by group members that choose not to respond to a multicast
    query (e.g. a loaded program manager ignoring ``find-candidates``):
    the sender sees silence from this member, and its retransmissions are
    absorbed without reply-pending packets, so it can time out normally
    if nobody else answers.
    """

    dst: Pid


@dataclass(frozen=True)
class GetReplies:
    """Collect the additional responses to this process's most recent
    group Send (V's GetReply facility).  A group Send resumes with the
    *first* reply; stragglers are retained briefly and retrieved here.
    Resumes with a list of ``(replier_pid, message)`` pairs."""


@dataclass(frozen=True)
class Forward:
    """V Forward: hand a received-but-unreplied message from ``original_sender``
    over to process ``to``, which will Reply in our place."""

    original_sender: Pid
    message: Any
    to: Pid


@dataclass(frozen=True)
class CopyToInstr:
    """Copy the given source :class:`Page` snapshots into the address
    space of the process (or shell logical host) ``dst``.  Blocks for the
    full transfer; raises :class:`~repro.errors.CopyFailedError` if the
    destination host dies."""

    dst: Pid
    pages: Tuple[Any, ...]

    def __init__(self, dst: Pid, pages: Sequence[Any]):
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "pages", tuple(pages))


@dataclass(frozen=True)
class CopyFromInstr:
    """Fetch snapshots of pages ``indexes`` from the space of ``src``.
    Resumes with a list of page snapshots."""

    src: Pid
    indexes: Tuple[int, ...]

    def __init__(self, src: Pid, indexes: Iterable[int]):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "indexes", tuple(indexes))


@dataclass(frozen=True)
class Delay:
    """Sleep ``us`` microseconds without occupying the CPU."""

    us: int


@dataclass(frozen=True)
class Exit:
    """Terminate the issuing process."""

    code: int = 0


# ------------------------------------------------------------------------ PCB


class Pcb:
    """Process control block: everything the kernel knows about a process.

    The PCB travels with migration: the kernel-state transfer re-parents
    it (body generator, message queue, send-sequence counter and all) to
    the destination kernel while both copies are frozen.
    """

    def __init__(
        self,
        pid: Pid,
        logical_host,
        space,
        body,
        priority: Priority = Priority.LOCAL,
        name: str = "",
    ):
        if pid.is_group:
            raise KernelError(f"cannot create a process with group id {pid}")
        if body is not None and not isinstance(body, _types.GeneratorType):
            raise KernelError(
                f"process body must be a generator, got {type(body).__name__}; "
                "did you forget to call the generator function?"
            )
        self.pid = pid
        self.logical_host = logical_host
        self.space = space
        self.body = body
        self.priority = Priority(priority)
        self.name = name or f"proc-{pid.logical_host_id:x}.{pid.local_index:x}"
        self.state = ProcessState.READY
        #: CPU microseconds left on the current Compute (for preemption).
        self.remaining_us = 0
        #: Incoming requests not yet Received: list of transport records.
        self.msg_queue: List[Any] = []
        #: Per-process send sequence counter (migrates with the process).
        self.next_seq = 1
        #: Whether a wakeup arrived while the logical host was frozen
        #: (or while the process was suspended).
        self.wake_pending = False
        #: Explicitly stopped via the suspension facility (orthogonal to
        #: the blocking state: a suspended process may simultaneously be
        #: awaiting a reply, and must not run when that reply arrives).
        self.suspended = False
        #: Value (or exception) to feed the body when next scheduled.
        self.resume_value: Any = None
        self.resume_throw = False
        self.exit_code: Optional[int] = None
        #: Pending client-send transport record, if awaiting reply.
        self.client_record: Any = None
        #: Absolute wakeup time of an in-progress Delay (so a migration
        #: can re-arm it on the destination host).
        self.delay_deadline = 0
        #: Statistics for experiment reports.
        self.cpu_used_us = 0
        self.messages_sent = 0
        self.messages_received = 0

    @property
    def alive(self) -> bool:
        """Whether the process has not exited or been destroyed."""
        return self.state is not _DEAD

    @property
    def frozen(self) -> bool:
        """Whether the containing logical host is frozen."""
        return self.logical_host is not None and self.logical_host.frozen

    @property
    def runnable(self) -> bool:
        """Schedulable right now: alive, not frozen, not suspended."""
        return self.alive and not self.frozen and not self.suspended

    def state_label(self) -> str:
        """Human-readable state including the suspension overlay."""
        if self.suspended and self.state is not ProcessState.DEAD:
            return "suspended"
        return self.state.value

    def allocate_seq(self) -> int:
        """Next send sequence number (monotonic per process)."""
        seq = self.next_seq
        self.next_seq += 1
        return seq

    def step(self) -> Any:
        """Advance the body one instruction and return what it yielded.

        Raises ``StopIteration`` when the body finishes.  The caller is
        responsible for having set :attr:`resume_value` /
        :attr:`resume_throw`.
        """
        value, throw = self.resume_value, self.resume_throw
        self.resume_value, self.resume_throw = None, False
        if throw:
            return self.body.throw(value)
        return self.body.send(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pcb {self.name} {self.pid} {self.state.value}>"
