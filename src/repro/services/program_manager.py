"""The per-workstation program manager (paper §2.1).

Every workstation runs a program manager that provides program
management for the programs executing on it: creating address spaces,
having program images loaded from the file servers, answering
candidate-host queries for ``@ *`` scheduling, and driving migrations
out of its workstation.  All program managers belong to the well-known
program-manager group; host selection multicasts to that group and the
client "simply selects the program manager that responds first since
that is generally the least loaded host".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import KernelError, OutOfMemoryError, SendTimeoutError
from repro.ipc.messages import Message
from repro.kernel.ids import FILE_SERVER_GROUP, PROGRAM_MANAGER_GROUP, Pid
from repro.kernel.machine import Workstation
from repro.kernel.process import (
    Compute,
    Decline,
    GetReplies,
    Pcb,
    Priority,
    Receive,
    Reply,
    Send,
)
from repro.services.service import install_service

_migration_tokens = itertools.count(1)


@dataclass
class AcceptPolicy:
    """When a program manager answers candidate queries.

    The paper: hosts respond to ``@ *`` if they have "a reasonable amount
    of processor and memory resources available"; by default an owner's
    active use does not disqualify a host (priority scheduling protects
    the owner, §2) but experiments can tighten that.
    """

    #: Refuse when this many program-priority processes already run here.
    max_program_processes: int = 3
    #: Refuse when free memory would drop below this.
    min_free_memory: int = 128 * 1024
    #: Whether to accept new remote work while the owner is active.
    accept_when_owner_active: bool = True

    def willing(self, workstation: Workstation, memory_needed: int) -> bool:
        """Would this host take new remote work of the given size?"""
        if workstation.owner_active and not self.accept_when_owner_active:
            return False
        kernel = workstation.kernel
        summary = kernel.load_summary()
        if summary["programs"] >= self.max_program_processes:
            return False
        return kernel.memory_free - memory_needed >= self.min_free_memory


@dataclass
class ProgramRecord:
    """What the program manager remembers about a program it manages."""

    pid: Pid
    name: str
    lhid: int
    remote: bool
    created_at: int
    requester: Optional[Pid] = None
    exited: bool = False
    exit_code: Optional[int] = None


class ProgramManager:
    """State and behaviour of one workstation's program manager."""

    def __init__(self, workstation: Workstation, policy: Optional[AcceptPolicy] = None):
        self.workstation = workstation
        self.kernel = workstation.kernel
        self.sim = workstation.sim
        self.hostname = workstation.name
        self.policy = policy or AcceptPolicy()
        self.pcb: Optional[Pcb] = None
        #: Programs created here or migrated in, by pid.
        self.records: Dict[Pid, ProgramRecord] = {}
        #: pid -> pids blocked in wait-program (unreplied senders).
        self.waiters: Dict[Pid, List[Pid]] = {}
        #: In-flight migrations: token -> requesting pid.
        self._migrations: Dict[int, Pid] = {}
        #: Logical hosts currently being migrated away (guards against a
        #: second concurrent migrate-out racing the first).
        self._migrating_lhids: set = set()
        #: Completed out-migrations, newest last (bounded).
        self.migration_history: List = []
        # Counters for experiment reports.
        self.programs_created = 0
        self.candidate_replies = 0
        self.migrations_out = 0
        self.migrations_failed = 0
        #: Selection traffic: every find-candidates/placement probe-load
        #: handled here.  Summed across managers this is the cluster's
        #: per-exec selection message cost (the placement bench's key
        #: metric).
        self.selection_queries = 0
        #: Background anti-entropy refreshes (``probe-load`` with
        #: ``refresh=True``) -- cache upkeep, not selection traffic, so
        #: accounted separately.
        self.refresh_queries = 0
        #: Admission-checked creations politely declined (stale views).
        self.exec_declines = 0
        m = self.sim.metrics
        self._m_queries = m.counter("placement.queries", self.hostname)
        self._m_refreshes = m.counter(
            "placement.refresh_queries", self.hostname)
        self._m_declines = m.counter("placement.declines", self.hostname)

    # ------------------------------------------------------------- helpers

    def load_digest(self) -> dict:
        """This host's load summary in the piggy-backed digest format
        (see :class:`repro.cluster.placement.HostDigest`).  Attached to
        replies the manager already sends -- message fields weigh nothing
        on the simulated wire, so piggy-backing never changes trajectory
        and stays on unconditionally."""
        summary = self.kernel.load_summary()
        return {
            "host": self.hostname, "pm": self.pcb.pid,
            "load": summary["programs"], "remote": summary["remote"],
            "ready": summary["ready"], "memory_free": summary["memory_free"],
            "ts": self.sim.now,
        }

    def program_lhids(self) -> List[int]:
        """Logical hosts on this workstation running program-priority
        processes (includes migrated-in programs we did not create)."""
        out = []
        for lhid, lh in sorted(self.kernel.logical_hosts.items()):
            if any(p.alive and p.priority >= Priority.LOCAL
                   for p in lh.processes.values()):
                out.append(lhid)
        return out

    def remote_program_lhids(self) -> List[int]:
        """Logical hosts running remotely-executed programs (the set
        ``migrateprog`` with no argument removes, §3)."""
        out = []
        for lhid, lh in sorted(self.kernel.logical_hosts.items()):
            if any(p.alive and p.priority == Priority.REMOTE
                   for p in lh.processes.values()):
                out.append(lhid)
        return out

    # ---------------------------------------------------------------- body

    def body(self):
        """The program manager's server loop."""
        model = self.kernel.model
        while True:
            sender, msg = yield Receive()
            kind = msg.kind
            if kind == "query-host":
                if msg["hostname"] == self.hostname:
                    yield Compute(2_000)
                    yield Reply(sender, Message("host-here", pm=self.pcb.pid,
                                                host=self.hostname))
                else:
                    # Not our name: stay silent (someone else answers).
                    yield Decline(sender)
            elif kind == "find-candidates":
                # Busier hosts take longer to answer, which is what makes
                # "first responder" double as "generally the least loaded
                # host" (paper §2.1).
                self.selection_queries += 1
                if self.sim.metrics.active:
                    self._m_queries.inc()
                summary = self.kernel.load_summary()
                yield Compute(
                    model.host_query_handling_us + 2_000 * summary["programs"]
                )
                if self.policy.willing(self.workstation, msg.get("memory_needed", 0)):
                    self.candidate_replies += 1
                    digest = self.load_digest()
                    yield Reply(sender, Message(
                        "candidate", pm=self.pcb.pid, host=self.hostname,
                        load=digest["load"], memory_free=digest["memory_free"],
                        digest=digest,
                    ))
                else:
                    yield Decline(sender)
            elif kind == "probe-load":
                # A unicast load probe (placement policies, anti-entropy
                # cache refresh).  Unlike find-candidates this *always*
                # replies -- a Decline on a direct send would strand the
                # prober until its send timeout.
                if msg.get("refresh"):
                    self.refresh_queries += 1
                    if self.sim.metrics.active:
                        self._m_refreshes.inc()
                else:
                    self.selection_queries += 1
                    if self.sim.metrics.active:
                        self._m_queries.inc()
                yield Compute(model.host_query_handling_us)
                willing = self.policy.willing(
                    self.workstation, msg.get("memory_needed", 0))
                yield Reply(sender, Message(
                    "load-digest", pm=self.pcb.pid, host=self.hostname,
                    willing=willing, digest=self.load_digest(),
                ))
            elif kind == "offer-lh":
                summary = self.kernel.load_summary()
                yield Compute(
                    model.host_query_handling_us + 2_000 * summary["programs"]
                )
                if self.policy.willing(self.workstation, msg.get("bytes", 0)):
                    yield Reply(sender, Message(
                        "lh-accepted", pm=self.pcb.pid, host=self.hostname,
                    ))
                else:
                    yield Decline(sender)
            elif kind == "create-program":
                yield from self._create_program(sender, msg)
            elif kind == "create-env":
                # Bare execution-environment creation (no program load):
                # the "setup" half of the paper's 40 ms measurement.
                yield Compute(model.env_setup_us)
                try:
                    lh = self.kernel.create_logical_host()
                    self.kernel.allocate_space(
                        lh, msg.get("space_bytes", 64 * 1024), name="env"
                    )
                except (OutOfMemoryError, KernelError) as exc:
                    yield Reply(sender, Message("pm-error", error=str(exc)))
                    continue
                yield Reply(sender, Message("env-created", lhid=lh.lhid))
            elif kind == "destroy-env":
                # Tear down an execution environment we created (the
                # "destroy" half of the paper's 40 ms setup+teardown).
                yield Compute(model.env_destroy_us)
                lh = self.kernel.logical_hosts.get(msg["lhid"])
                if lh is not None and self._is_system_lh(lh):
                    yield Reply(sender, Message(
                        "pm-error", error="cannot destroy a system host"))
                    continue
                if lh is not None:
                    self.kernel.destroy_logical_host(lh)
                yield Reply(sender, Message("ok"))
            elif kind == "program-exited":
                yield from self._program_exited(sender, msg)
            elif kind == "wait-program":
                pid = msg["pid"]
                record = self.records.get(pid)
                lh = self.kernel.logical_hosts.get(pid.logical_host_id)
                if record is not None and record.exited:
                    yield Reply(sender, Message("program-done", code=record.exit_code))
                elif lh is not None or record is not None:
                    self.waiters.setdefault(pid, []).append(sender)
                    # No reply yet: reply-pending keeps the waiter alive.
                else:
                    # The program moved between routing and handling.
                    yield Reply(sender, Message("retry-elsewhere"))
            elif kind == "query-programs":
                yield Reply(sender, self._query_programs_reply())
            elif kind == "query-migrations":
                rows = tuple(
                    {
                        "lhid": s.lhid, "ok": s.success, "dest": s.dest_host,
                        "freeze_us": s.freeze_us, "rounds": s.precopy_rounds,
                        "residual_bytes": s.residual_bytes,
                        "total_us": s.total_us, "error": s.error,
                    }
                    for s in self.migration_history[-20:]
                )
                yield Reply(sender, Message("migrations", rows=rows))
            elif kind == "whoami":
                # Cheap identity query: lets clients resolve the managing
                # program manager's direct pid before a long-lived request
                # (whose reply must be retrievable from *this* manager's
                # retained-reply cache even if the subject logical host
                # moves meanwhile).
                yield Reply(sender, Message("i-am", pm=self.pcb.pid,
                                            host=self.hostname))
            elif kind == "kill-program":
                yield from self._kill_program(sender, msg)
            elif kind == "suspend-program":
                yield from self._suspend_resume(sender, msg, suspend=True)
            elif kind == "resume-program":
                yield from self._suspend_resume(sender, msg, suspend=False)
            elif kind == "migrate-out":
                yield from self._migrate_out(sender, msg)
            elif kind == "migration-finished":
                yield from self._migration_finished(sender, msg)
            else:
                yield Reply(sender, Message("pm-error", error=f"unknown op {kind!r}"))

    # ------------------------------------------------------ program creation

    def _file_server_send(self, message):
        """Send to the boot-configured file server, failing over to any
        member of the global file-server group if it is down (diskless
        hosts depend on *a* file server, not a particular one)."""
        try:
            reply = yield Send(self.kernel.file_server_pid, message)
            return reply
        except SendTimeoutError:
            reply = yield Send(FILE_SERVER_GROUP, message)
            replies = yield GetReplies()
            if replies:
                # Adopt the surviving responder for subsequent requests.
                self.kernel.file_server_pid = replies[0][0]
            return reply

    def _create_program(self, sender, msg):
        """Create an execution environment and have the image loaded.

        The requester is handed the new process to initialize and start
        (paper §2.1); here that is: we reply with the new pid, the
        requester sends it the start message carrying the context.
        """
        from repro.execution.api import boot_body  # local import: layering

        model = self.kernel.model
        name = msg["program"]
        if msg.get("admission"):
            # Cache-driven placements (RandomK/CachedBestFit) were chosen
            # from a possibly stale view, so the target re-validates
            # willingness and declines *politely* -- with a fresh digest,
            # so the requester's next attempt already sees the truth.
            # Paper-exact requests never carry the flag and are
            # unaffected.
            yield Compute(model.host_query_handling_us)
            if not self.policy.willing(self.workstation,
                                       msg.get("memory_needed", 0)):
                self.exec_declines += 1
                if self.sim.metrics.active:
                    self._m_declines.inc()
                yield Reply(sender, Message(
                    "exec-declined", pm=self.pcb.pid, host=self.hostname,
                    error="admission check refused (stale view)",
                    digest=self.load_digest(),
                ))
                return
        stat = yield from self._file_server_send(
            Message("stat-image", name=name)
        )
        if stat.kind == "fs-error":
            yield Reply(sender, Message("exec-error", error=stat["error"]))
            return
        if stat["device_bound"] and msg.get("remote", False):
            yield Reply(sender, Message(
                "exec-error",
                error=f"{name} accesses hardware devices; cannot run remotely",
            ))
            return
        yield Compute(model.env_setup_us)
        target_lhid = msg.get("lhid")
        lh = None
        if target_lhid is not None:
            lh = self.kernel.logical_hosts.get(target_lhid)
        try:
            if lh is None:
                lh = self.kernel.create_logical_host()
            space = self.kernel.allocate_space(
                lh, stat["space_bytes"], stat["code_bytes"],
                stat["image_bytes"] - stat["code_bytes"], name=f"{name}-space",
            )
        except (OutOfMemoryError, KernelError) as exc:
            yield Reply(sender, Message("exec-error", error=str(exc)))
            return
        registry = self.kernel.program_registry
        image = registry.lookup(name)
        priority = Priority.REMOTE if msg.get("remote", False) else Priority.LOCAL
        pcb = self.kernel.create_process(
            lh, boot_body(image.body_factory), space, priority, name=name
        )
        loaded = yield from self._file_server_send(
            Message("load-image", name=name, target=pcb.pid)
        )
        if loaded.kind != "image-loaded":
            self.kernel.destroy_logical_host(lh)
            yield Reply(sender, Message("exec-error", error="image load failed"))
            return
        self.programs_created += 1
        self.records[pcb.pid] = ProgramRecord(
            pid=pcb.pid, name=name, lhid=lh.lhid,
            remote=msg.get("remote", False), created_at=self.sim.now,
            requester=sender,
        )
        yield Reply(sender, Message(
            "program-created", pid=pcb.pid, lhid=lh.lhid,
            origin_pm=self.pcb.pid, host=self.hostname,
            digest=self.load_digest(),
        ))

    def _program_exited(self, sender, msg):
        pid, code = msg["pid"], msg.get("code", 0)
        record = self.records.get(pid)
        if record is None:
            record = ProgramRecord(pid=pid, name="?", lhid=pid.logical_host_id,
                                   remote=False, created_at=self.sim.now)
            self.records[pid] = record
        record.exited = True
        record.exit_code = code
        yield Reply(sender, Message("ok"))
        for waiter in self.waiters.pop(pid, []):
            self.kernel.ipc.reply_from(
                self.pcb, waiter, Message("program-done", code=code)
            )
        # Reap the execution environment once the last process is gone
        # (the teardown half of the paper's 40 ms setup+destroy cost).
        self.sim.schedule(50_000, self._maybe_reap, pid.logical_host_id)

    def _maybe_reap(self, lhid: int) -> None:
        lh = self.kernel.logical_hosts.get(lhid)
        if lh is None or lh.frozen or lh.has_live_process():
            return
        self.kernel.destroy_logical_host(lh)

    def _query_programs_reply(self) -> Message:
        rows = []
        for lhid in self.program_lhids():
            lh = self.kernel.logical_hosts[lhid]
            for pcb in lh.live_processes():
                if pcb.priority < Priority.LOCAL:
                    continue
                rows.append({
                    "pid": pcb.pid, "name": pcb.name,
                    "state": pcb.state_label(),
                    "remote": pcb.priority == Priority.REMOTE,
                    "frozen": pcb.frozen, "cpu_us": pcb.cpu_used_us,
                })
        return Message("programs", rows=tuple(rows))

    def _is_system_lh(self, lh) -> bool:
        """Logical hosts that hold this workstation together: the kernel
        server's system host and the services' own hosts."""
        if lh is self.workstation.system_lh:
            return True
        if self.pcb is not None and lh is self.pcb.logical_host:
            return True
        return any(p.alive and p.priority < Priority.LOCAL
                   for p in lh.processes.values())

    def _kill_program(self, sender, msg):
        lh = self.kernel.logical_hosts.get(msg["pid"].logical_host_id)
        if lh is None:
            yield Reply(sender, Message("pm-error", error="no such program"))
            return
        if self._is_system_lh(lh):
            yield Reply(sender, Message("pm-error",
                                        error="cannot kill a system host"))
            return
        self.kernel.destroy_logical_host(lh)
        self._notify_waiters_of_lh(msg["pid"].logical_host_id, code=-1)
        yield Reply(sender, Message("ok"))

    def on_lh_migrated_away(self, lhid: int) -> None:
        """The logical host left this workstation: our records for it are
        now the new host's business.  Drop them and send pending waiters
        back out to re-rendezvous at the program's new home.  Called by
        the kernel on every migrated destroy, whichever migration
        strategy drove it."""
        for pid in list(self.records):
            if pid.logical_host_id == lhid:
                del self.records[pid]
                for waiter in self.waiters.pop(pid, []):
                    self.kernel.ipc.reply_from(
                        self.pcb, waiter, Message("retry-elsewhere")
                    )

    def _notify_waiters_of_lh(self, lhid: int, code: int) -> None:
        """Release every waiter on programs of a destroyed logical host."""
        for pid in list(self.waiters):
            if pid.logical_host_id != lhid:
                continue
            record = self.records.get(pid)
            if record is not None:
                record.exited = True
                record.exit_code = code
            for waiter in self.waiters.pop(pid, []):
                self.kernel.ipc.reply_from(
                    self.pcb, waiter, Message("program-done", code=code)
                )

    def _suspend_resume(self, sender, msg, suspend: bool):
        lh = self.kernel.logical_hosts.get(msg["pid"].logical_host_id)
        if lh is None:
            yield Reply(sender, Message("pm-error", error="no such program"))
            return
        for pcb in lh.live_processes():
            if suspend:
                self.kernel.suspend_process(pcb)
            else:
                self.kernel.resume_process(pcb)
        yield Reply(sender, Message("ok"))

    # ------------------------------------------------------------- migration

    def _migrate_out(self, sender, msg):
        """Start migrating a logical host away; the reply is deferred
        until the migration manager finishes."""
        from repro.migration.manager import migration_manager_body

        lhid = msg.get("lhid")
        if lhid is None:
            lhid = msg["pid"].logical_host_id
        lh = self.kernel.logical_hosts.get(lhid)
        if lh is None:
            yield Reply(sender, Message("pm-error", error="no such logical host"))
            return
        if self._is_system_lh(lh):
            yield Reply(sender, Message("pm-error", error="cannot migrate a system host"))
            return
        if lhid in self._migrating_lhids:
            yield Reply(sender, Message(
                "pm-error", error="migration already in progress"
            ))
            return
        self._migrating_lhids.add(lhid)
        token = next(_migration_tokens)
        self._migrations[token] = sender
        self.kernel.create_process(
            self.pcb.logical_host,
            migration_manager_body(self, lh, token, msg),
            priority=Priority.MIGRATION,
            name=f"mig-mgr-{token}",
        )

    def _migration_finished(self, sender, msg):
        yield Reply(sender, Message("ok"))
        token = msg["token"]
        requester = self._migrations.pop(token, None)
        stats_for_lhid = msg.get("stats")
        if stats_for_lhid is not None:
            self._migrating_lhids.discard(stats_for_lhid.lhid)
            self.migration_history.append(stats_for_lhid)
            del self.migration_history[:-50]  # bounded
        if msg.get("ok", False):
            self.migrations_out += 1
            # Our program-manager state for the logical host moved with
            # it (normally already handed off by the kernel's migrated
            # destroy; idempotent).
            stats = msg.get("stats")
            if stats is not None:
                self.on_lh_migrated_away(stats.lhid)
        else:
            self.migrations_failed += 1
            stats = msg.get("stats")
            if stats is not None and "destroyed" in (stats.error or ""):
                # migrateprog -n destroyed the stranded program: release
                # anyone waiting on it.
                self._notify_waiters_of_lh(stats.lhid, code=-1)
        if requester is not None:
            self.kernel.ipc.reply_from(
                self.pcb, requester,
                Message("migrated", ok=msg.get("ok", False),
                        dest=msg.get("dest"), error=msg.get("error"),
                        stats=msg.get("stats")),
            )


def install_program_manager(
    workstation: Workstation,
    policy: Optional[AcceptPolicy] = None,
) -> ProgramManager:
    """Run a program manager on ``workstation`` and join it to the
    program-manager group."""
    manager = ProgramManager(workstation, policy)
    manager.pcb = install_service(
        workstation, manager.body(), f"pm@{workstation.name}",
        group=PROGRAM_MANAGER_GROUP,
    )
    workstation.install_program_manager(manager.pcb)
    workstation.kernel.program_manager = manager
    return manager
