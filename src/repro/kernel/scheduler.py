"""Per-workstation CPU scheduling.

One CPU per workstation, strict priority with round-robin time slicing
among equals, full preemption.  Two paper claims live here:

* locally invoked programs outrank remote ones, so an interactive owner
  does not notice background jobs (§2);
* the pre-copy activity runs above all programs so they cannot starve it
  and stretch the copy (§3.1.2).

The scheduler *interprets* process bodies: it advances the body
generator, executes the yielded instruction, and blocks/unblocks the PCB
accordingly.  Every non-Compute instruction costs
:data:`INSTRUCTION_OVERHEAD_US` of CPU so that instruction storms cannot
livelock simulated time.

A CPU left idle -- nothing running, every ready queue empty -- does not
queue the dispatch that would find nothing: it reserves the dispatch's
turn in the event order (:meth:`repro.sim.engine.Simulator.reserve`),
and a wake-up before that turn fills it with the real dispatch at the
same heap key (see ``Scheduler._schedule_dispatch``).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.errors import KernelError
from repro.kernel.process import (
    Compute,
    Priority,
    CopyFromInstr,
    CopyToInstr,
    Decline,
    Delay,
    Exit,
    Forward,
    GetReplies,
    Pcb,
    ProcessState,
    Receive,
    Reply,
    Send,
    Touch,
    TouchPages,
)

#: CPU cost charged for each non-Compute instruction dispatch.
INSTRUCTION_OVERHEAD_US = 1

# Process states read on every dispatch; an enum member lookup is a
# descriptor call, a module global is not.
_READY = ProcessState.READY
_RUNNING = ProcessState.RUNNING
_AWAITING_REPLY = ProcessState.AWAITING_REPLY
_RECEIVING = ProcessState.RECEIVING
_DELAYING = ProcessState.DELAYING


class Scheduler:
    """Priority scheduler for one workstation's CPU."""

    def __init__(self, sim, kernel, model):
        self.sim = sim
        #: Cached bound ``sim.schedule`` for the dispatch/compute chains.
        self._sched = sim.schedule
        self.kernel = kernel
        self.model = model
        self._queues: Dict[int, deque] = {}
        #: ``(priority, queue)`` for every queue, best priority first.
        self._ranked: List[Tuple[int, deque]] = []
        self.running: Optional[Pcb] = None
        self._completion_timer = None
        self._compute_started_at = 0
        self._dispatch_pending = False
        #: The slot reserved for the dispatch of an idle CPU (it may
        #: have been retired since; see ``_schedule_dispatch``).
        self._idle_slot = None
        #: Total CPU-busy microseconds, for load reporting.
        self.busy_us = 0
        # Unified-observability instruments (recorded only while
        # sim.metrics is enabled; disabled cost is one load + branch).
        m = sim.metrics
        self.metrics = m
        self._host = host = kernel.name
        self._m_switches = m.counter("sched.context_switches", host)
        self._m_switch_us = m.counter("sched.context_switch_us", host)
        self._m_runq = m.gauge("sched.runq_depth", host)
        self._m_cpu = {
            p: m.counter(f"sched.cpu_us.{p.name.lower()}", host)
            for p in Priority
        }
        self._m_ops: Dict[type, object] = {}

    def _cpu_counter(self, priority):
        """Per-priority CPU-time counter (handles ad-hoc int priorities)."""
        counter = self._m_cpu.get(priority)
        if counter is None:
            counter = self._m_cpu[priority] = self.metrics.counter(
                f"sched.cpu_us.p{int(priority)}", self._host
            )
        return counter

    # --------------------------------------------------------------- queues

    def _queue(self, priority: int) -> deque:
        q = self._queues.get(priority)
        if q is None:
            q = deque()
            self._queues[priority] = q
            insort(self._ranked, (priority, q), key=itemgetter(0))
        return q

    def _pop_highest(self) -> Optional[Pcb]:
        for _, q in self._ranked:
            while q:
                pcb = q.popleft()
                if pcb.runnable and pcb.state is _READY:
                    return pcb
        return None

    def _highest_ready_priority(self) -> Optional[int]:
        for priority, q in self._ranked:
            for pcb in q:
                if pcb.runnable and pcb.state is _READY:
                    return priority
        return None

    def busy_now(self) -> int:
        """CPU-busy microseconds including the currently running chunk
        (``busy_us`` alone is only credited at chunk boundaries)."""
        busy = self.busy_us
        if self.running is not None and self._completion_timer is not None:
            busy += self.sim.now - self._compute_started_at
        return busy

    def ready_count(self, max_priority: Optional[int] = None) -> int:
        """Number of runnable processes (ready + running), optionally only
        those at ``max_priority`` or worse (higher number) -- used by the
        program manager's load report."""
        count = 0
        for priority, q in self._queues.items():
            if max_priority is not None and priority < max_priority:
                continue
            count += sum(
                1 for p in q if p.runnable and p.state is _READY
            )
        if self.running is not None and (
            max_priority is None or self.running.priority >= max_priority
        ):
            count += 1
        return count

    # ------------------------------------------------------------ readiness

    def make_ready(self, pcb: Pcb, value=None, throw: bool = False) -> None:
        """Unblock ``pcb``, feeding ``value`` (or throwing it) into the
        body at its next step.  On a frozen logical host the wakeup is
        remembered and applied at unfreeze."""
        if not pcb.alive:
            return
        pcb.resume_value = value
        pcb.resume_throw = throw
        if pcb.frozen or pcb.suspended:
            pcb.wake_pending = True
            pcb.state = _READY
            return
        pcb.state = _READY
        self._queue(pcb.priority).append(pcb)
        self._maybe_preempt()
        self._schedule_dispatch()

    def block(self, pcb: Pcb, state: ProcessState) -> None:
        """Transition the running process into a blocked state."""
        if self.running is pcb:
            self._stop_running()
        pcb.state = state
        self._schedule_dispatch()

    # ----------------------------------------------------------- preemption

    def _maybe_preempt(self) -> None:
        if self.running is None:
            return
        best = self._highest_ready_priority()
        if best is None:
            return
        if best < self.running.priority:
            self._preempt_running()
        elif best == self.running.priority:
            # An equal-priority peer appeared mid-chunk: bound the current
            # compute to one time slice from now so round-robin resumes.
            self._reslice_running()

    def _reslice_running(self) -> None:
        if self._completion_timer is None or self.running is None:
            return
        remaining_chunk = self._completion_timer.time - self.sim.now
        if remaining_chunk <= self.model.time_slice_us:
            return
        pcb = self.running
        self._save_compute_progress(pcb)
        chunk = min(pcb.remaining_us, self.model.time_slice_us)
        self._compute_started_at = self.sim.now
        self._completion_timer = self._sched(
            chunk, self._compute_done, pcb, chunk
        )

    def _preempt_running(self) -> None:
        pcb = self.running
        self._save_compute_progress(pcb)
        self.running = None
        pcb.state = _READY
        # Preempted processes go to the front of their queue so they
        # resume before peers that never started.
        self._queue(pcb.priority).appendleft(pcb)
        self._schedule_dispatch()

    def _save_compute_progress(self, pcb: Pcb) -> None:
        if self._completion_timer is not None:
            self._completion_timer.cancel()
            self._completion_timer = None
            elapsed = self.sim.now - self._compute_started_at
            pcb.remaining_us = max(0, pcb.remaining_us - elapsed)
            pcb.cpu_used_us += elapsed
            self.busy_us += elapsed
            if self.metrics.active:
                self._cpu_counter(pcb.priority).inc(elapsed)

    def _stop_running(self) -> None:
        if self._completion_timer is not None:
            self._completion_timer.cancel()
            self._completion_timer = None
        self.running = None

    # ------------------------------------------------------------- freezing

    def on_freeze(self, logical_host) -> None:
        """Stop scheduling every process of the logical host (they keep
        their states; a running process has its compute progress saved)."""
        if self.running is not None and self.running.logical_host is logical_host:
            pcb = self.running
            self._save_compute_progress(pcb)
            self.running = None
            pcb.state = _READY
        for q in self._queues.values():
            for pcb in list(q):
                if pcb.logical_host is logical_host:
                    q.remove(pcb)
        self._schedule_dispatch()

    def on_unfreeze(self, logical_host) -> None:
        """Resume scheduling: re-enqueue READY processes and deliver
        wakeups that arrived during the freeze."""
        for pcb in logical_host.live_processes():
            if pcb.suspended:
                continue  # held until explicitly resumed
            if pcb.state is _READY or pcb.wake_pending:
                pcb.wake_pending = False
                pcb.state = _READY
                self._queue(pcb.priority).append(pcb)
        self._maybe_preempt()
        self._schedule_dispatch()

    # -------------------------------------------------------------- removal

    def on_destroy(self, pcb: Pcb) -> None:
        """Stop tracking a process (destroyed, suspended, or being
        re-queued after a priority change).  In-flight compute progress
        is saved so a suspended/re-prioritized process does not redo
        work it already did."""
        if self.running is pcb:
            self._save_compute_progress(pcb)
            self.running = None
            self._schedule_dispatch()
        for q in self._queues.values():
            if pcb in q:
                q.remove(pcb)

    # ------------------------------------------------------------- dispatch

    def _schedule_dispatch(self) -> None:
        """Queue one ``_dispatch`` at this instant.  On an idle CPU --
        nothing running, every ready queue empty -- that dispatch would
        find nothing, so only its turn is reserved; every path that
        enqueues a process comes back here, and a wake-up before the
        turn fills the slot with the real dispatch at the same key."""
        if self._dispatch_pending:
            return
        slot = self._idle_slot
        if self.running is None and not any(self._queues.values()):
            if slot is None or not self.sim.reserved(slot):
                self._idle_slot = self.sim.reserve(self._dispatch)
            return
        self._dispatch_pending = True
        if slot is not None:
            self._idle_slot = None
            if self.sim.fill(slot, self._dispatch) is not None:
                return
        self._sched(0, self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_pending = False
        if self.running is not None:
            return
        pcb = self._pop_highest()
        if pcb is None:
            return
        self.running = pcb
        pcb.state = _RUNNING
        switch = self.model.context_switch_us
        self.busy_us += switch
        if self.metrics.active:
            self._m_switches.inc()
            self._m_switch_us.inc(switch)
            self._m_runq.set(self.ready_count())
        self._sched(switch, self._execute, pcb)

    def _execute(self, pcb: Pcb) -> None:
        """Run the current process: resume its compute or interpret the
        next instruction."""
        if self.running is not pcb or pcb.state is not _RUNNING:
            return
        if pcb.remaining_us > 0:
            self._begin_compute(pcb)
            return
        try:
            instruction = pcb.step()
        except StopIteration as stop:
            code = stop.value if isinstance(stop.value, int) else 0
            self.kernel.destroy_process(pcb, exit_code=code)
            return
        except Exception as exc:  # noqa: BLE001 - a crashed program
            self.kernel.on_process_fault(pcb, exc)
            return
        try:
            self._interpret(pcb, instruction)
        except Exception as exc:  # noqa: BLE001 - bad instruction/IPC misuse
            # Misusing an IPC primitive (double Reply, Decline with no
            # pending message, unknown instruction) faults the offending
            # program, never the kernel.
            self.kernel.on_process_fault(pcb, exc)

    def _begin_compute(self, pcb: Pcb) -> None:
        """Occupy the CPU for the rest of the PCB's compute, or one time
        slice if equal-priority peers are waiting."""
        slice_us = self.model.time_slice_us
        peers = self._queues.get(pcb.priority)
        peers_waiting = bool(peers) and any(
            p.runnable and p.state is _READY for p in peers
        )
        chunk = min(pcb.remaining_us, slice_us) if peers_waiting else pcb.remaining_us
        self._compute_started_at = self.sim.now
        self._completion_timer = self._sched(chunk, self._compute_done, pcb, chunk)

    def _compute_done(self, pcb: Pcb, chunk: int) -> None:
        if self.running is not pcb:
            return
        self._completion_timer = None
        pcb.remaining_us -= chunk
        pcb.cpu_used_us += chunk
        self.busy_us += chunk
        if self.metrics.active:
            self._cpu_counter(pcb.priority).inc(chunk)
        if pcb.remaining_us > 0:
            # Slice expired with work left: rotate among equals.
            self.running = None
            pcb.state = _READY
            self._queue(pcb.priority).append(pcb)
            self._schedule_dispatch()
        else:
            self._execute(pcb)

    # --------------------------------------------------------- instructions

    def _interpret(self, pcb: Pcb, instruction) -> None:
        """Execute one yielded instruction on behalf of ``pcb``."""
        charge = INSTRUCTION_OVERHEAD_US
        pcb.cpu_used_us += charge
        self.busy_us += charge
        if self.metrics.active:
            self._cpu_counter(pcb.priority).inc(charge)
            cls = type(instruction)
            counter = self._m_ops.get(cls)
            if counter is None:
                counter = self._m_ops[cls] = self.metrics.counter(
                    f"kernel.ops.{cls.__name__.lower()}", self._host
                )
            counter.inc()

        if isinstance(instruction, Compute):
            pcb.remaining_us = instruction.us
            if pcb.remaining_us > 0:
                self._begin_compute(pcb)
            else:
                self._sched(charge, self._execute, pcb)
        elif isinstance(instruction, Touch):
            fault_us = 0
            if pcb.space.pager is not None:
                fault_us = pcb.space.pager.service_faults_span(
                    instruction.offset, instruction.nbytes
                )
                self.busy_us += fault_us
            pcb.space.touch(instruction.offset, instruction.nbytes, instruction.write)
            self._sched(charge + fault_us, self._execute, pcb)
        elif isinstance(instruction, TouchPages):
            fault_us = 0
            if pcb.space.pager is not None:
                fault_us = pcb.space.pager.service_faults(instruction.indexes)
                self.busy_us += fault_us
            pcb.space.touch_pages(instruction.indexes, instruction.write)
            self._sched(charge + fault_us, self._execute, pcb)
        elif isinstance(instruction, Send):
            pcb.messages_sent += 1
            self._stop_running()
            pcb.state = _AWAITING_REPLY
            self.kernel.ipc.client_send(pcb, instruction.dst, instruction.message)
            self._schedule_dispatch()
        elif isinstance(instruction, Receive):
            if pcb.msg_queue:
                record = pcb.msg_queue.pop(0)
                record.mark_received()
                invariants = self.sim.invariants
                if invariants is not None:
                    invariants.note_request_delivered(
                        record.sender, record.seq, record.recipient
                    )
                pcb.messages_received += 1
                pcb.resume_value = (record.sender, record.message)
                self._sched(charge, self._execute, pcb)
            else:
                self._stop_running()
                pcb.state = _RECEIVING
                self._schedule_dispatch()
        elif isinstance(instruction, Reply):
            self.kernel.ipc.reply_from(pcb, instruction.dst, instruction.message)
            self._sched(charge, self._execute, pcb)
        elif isinstance(instruction, Decline):
            self.kernel.ipc.decline_from(pcb, instruction.dst)
            self._sched(charge, self._execute, pcb)
        elif isinstance(instruction, GetReplies):
            pcb.resume_value = self.kernel.ipc.group_replies(pcb)
            self._sched(charge, self._execute, pcb)
        elif isinstance(instruction, Forward):
            self.kernel.ipc.forward_from(
                pcb, instruction.original_sender, instruction.message, instruction.to
            )
            self._sched(charge, self._execute, pcb)
        elif isinstance(instruction, CopyToInstr):
            self._stop_running()
            pcb.state = _AWAITING_REPLY
            self.kernel.ipc.copy_to(pcb, instruction.dst, instruction.pages)
            self._schedule_dispatch()
        elif isinstance(instruction, CopyFromInstr):
            self._stop_running()
            pcb.state = _AWAITING_REPLY
            self.kernel.ipc.copy_from(pcb, instruction.src, instruction.indexes)
            self._schedule_dispatch()
        elif isinstance(instruction, Delay):
            if instruction.us < 0:
                raise KernelError(f"negative delay {instruction.us}")
            self._stop_running()
            pcb.state = _DELAYING
            pcb.delay_deadline = self.sim.now + instruction.us
            self._sched(instruction.us, self._delay_done, pcb)
            self._schedule_dispatch()
        elif isinstance(instruction, Exit):
            self.kernel.destroy_process(pcb, exit_code=instruction.code)
        else:
            raise KernelError(
                f"process {pcb.name} yielded unknown instruction "
                f"{type(instruction).__name__}"
            )

    def _delay_done(self, pcb: Pcb) -> None:
        if not pcb.alive or pcb.state is not _DELAYING:
            return
        self.make_ready(pcb)
