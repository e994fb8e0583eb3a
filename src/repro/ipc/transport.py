"""The reliable request-response transport (V IPC over the simulated wire).

Semantics implemented here, all load-bearing for migration (paper §3.1.3):

* **At-most-once delivery.**  Requests carry a per-sender sequence
  number; receivers deduplicate, retain replies for retransmission, and
  answer duplicate requests with the retained reply.
* **Reply-pending.**  While a request is queued or being processed --
  including while its recipient's logical host is frozen -- each
  retransmission is answered with a reply-pending packet that resets the
  sender's timeout, so "operations that normally take a few milliseconds"
  survive a multi-second disturbance without aborting.
* **Frozen-sender retransmission.**  A process on a frozen logical host
  that is awaiting reply *keeps retransmitting*, which refreshes the
  replier's reply-retention timer; arriving replies are discarded and
  recovered after migration from the replier's retained copy.
* **Lazy rebinding.**  When a destination stops answering (or answers
  "moved"), the binding-cache entry for its logical host is invalidated
  and a broadcast query re-resolves it -- this is the entire rebinding
  story after a migration (§3.1.4); no forwarding addresses are kept.
* **CopyTo/CopyFrom.**  Bulk page transfers paced at the calibrated
  3 s/MB, with an end-of-run acknowledgement whose absence signals
  destination-host failure.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.config import PAGE_SIZE
from repro.errors import (
    CopyFailedError,
    IpcError,
    NoSuchProcessError,
    SendTimeoutError,
)
from repro.ipc.messages import Message
from repro.kernel.ids import (
    KERNEL_SERVER_INDEX,
    Pid,
    is_wellknown_local_group,
)
from repro.kernel.process import Pcb, ProcessState
from repro.net.addresses import BROADCAST, HostAddress
from repro.net.packet import Packet


from repro.ipc.copyops import CopyEngine, PageSnapshot


class ClientRecord:
    """Sender-side state of one outstanding Send/CopyTo/CopyFrom.

    Migrates with its process: the kernel-state transfer re-registers the
    record at the destination transport so retransmission resumes from
    the new host.
    """

    __slots__ = (
        "pcb", "src_pid", "dst", "seq", "message", "op", "pages", "indexes",
        "page_indexes", "completed", "retries_left", "used_rebind_fallback",
        "timer", "is_group", "first_reply_at", "extra_replies",
        "received_snapshots", "issued_at", "span_id",
    )

    def __init__(self, pcb: Pcb, dst: Pid, message: Optional[Message], op: str):
        self.pcb = pcb
        self.src_pid = pcb.pid
        self.dst = dst
        self.seq = pcb.allocate_seq()
        self.message = message
        self.op = op  # 'send' | 'copyto' | 'copyfrom'
        self.pages: Tuple[Any, ...] = ()
        self.indexes: Tuple[int, ...] = ()
        #: Lazily cached ``tuple(p.index for p in pages)`` (copy-end
        #: packets re-announce it on every retransmission).
        self.page_indexes: Optional[Tuple[int, ...]] = None
        self.completed = False
        self.retries_left = 0
        self.used_rebind_fallback = False
        self.timer = None
        self.is_group = dst.is_group and dst.is_global_group
        self.first_reply_at: Optional[int] = None
        self.extra_replies: List[Tuple[Pid, Message]] = []
        self.received_snapshots: List[PageSnapshot] = []
        self.issued_at = 0
        #: Causal span covering the whole op (0 = tracing off); migrates
        #: with the record so the span closes at the destination host.
        self.span_id = 0

    @property
    def key(self) -> Tuple[Pid, int]:
        return (self.src_pid, self.seq)


class ServerRecord:
    """Receiver-side state of one incoming request."""

    __slots__ = (
        "sender", "seq", "recipient", "message", "origin_addr", "received",
        "replied", "forwarded", "declined", "reply_message", "queued_frozen",
        "last_activity",
    )

    def __init__(
        self,
        sender: Pid,
        seq: int,
        recipient: Pid,
        message: Message,
        origin_addr: Optional[HostAddress],
    ):
        self.sender = sender
        self.seq = seq
        self.recipient = recipient
        self.message = message
        #: Physical source of the request packet; None for local senders.
        self.origin_addr = origin_addr
        self.received = False
        self.replied = False
        self.forwarded = False
        self.declined = False
        self.reply_message: Optional[Message] = None
        self.queued_frozen = False
        #: Time of the last duplicate/reply touching this record; each
        #: sender retransmission "resets the replier's timeout for
        #: retaining the reply message" (paper §3.1.3).
        self.last_activity = 0

    @property
    def key(self) -> Tuple[Pid, int, Pid]:
        return (self.sender, self.seq, self.recipient)

    def mark_received(self) -> None:
        """The application performed the Receive for this message."""
        self.received = True


class Transport:
    """One kernel's end of the IPC protocol."""

    def __init__(self, sim, kernel, nic, model):
        self.sim = sim
        #: Cached bound ``sim.schedule`` -- the transport arms more
        #: timers than anything else in the tree, and the cached bound
        #: method saves an attribute hop on every one of them.
        self._sched = sim.schedule
        self.kernel = kernel
        self.nic = nic
        self.model = model
        self.cache = kernel.binding_cache
        self._clients: Dict[Tuple[Pid, int], ClientRecord] = {}
        self._servers: Dict[Tuple[Pid, int, Pid], ServerRecord] = {}
        #: (sender, recipient) -> FIFO of unreplied ServerRecords, for
        #: Reply matching.  Normally at most one entry (a sender blocks
        #: per Send), but a sender that timed out and moved on can leave
        #: a superseded request queued behind its successor.
        self._pending_reply: Dict[Tuple[Pid, Pid], List[ServerRecord]] = {}
        #: Bulk-transfer engine (CopyTo/CopyFrom streams + recovery).
        self.copies = CopyEngine(self)
        #: Lazy-rebinding kill switch (test hook): with False, exhausted
        #: retries and nak-moved packets neither invalidate the binding
        #: cache nor re-resolve -- the intentionally-broken configuration
        #: that must trip the no-residual-dependency invariant.
        self.rebind_enabled = True
        #: Per-packet protocol-processing time (the NIC receiver
        #: contract, see repro.net.nic).
        self.rx_delay_us = model.packet_process_us
        nic.install_handler(self)
        # ---- counters for experiment reports
        self.sends = 0
        self.remote_requests = 0
        self.local_requests = 0
        self.retransmissions = 0
        self.reply_pendings_sent = 0
        self.naks_sent = 0
        self.group_lookups = 0
        self.frozen_checks = 0
        self.rebinds = 0
        # ---- unified-observability instruments (repro.obs); recorded
        # only while sim.metrics is enabled, mirroring the ints above.
        m = sim.metrics
        self.metrics = m
        host = kernel.name
        self._m_sends = m.counter("ipc.sends", host)
        self._m_retrans = m.counter("ipc.retransmissions", host)
        self._m_reply_pendings = m.counter("ipc.reply_pendings", host)
        self._m_naks = m.counter("ipc.naks", host)
        self._m_rebinds = m.counter("ipc.rebinds", host)
        self._m_latency = {
            op: m.histogram(f"ipc.{op}_latency_us", host)
            for op in ("send", "copyto", "copyfrom")
        }

    # --------------------------------------------------- pending-reply FIFO

    def _pending_push(self, record: ServerRecord) -> None:
        self._pending_reply.setdefault(
            (record.sender, record.recipient), []
        ).append(record)

    def _pending_pop(self, sender: Pid, recipient: Pid) -> Optional[ServerRecord]:
        """Oldest unreplied record from ``sender`` at ``recipient``
        (servers answer in Receive order)."""
        queue = self._pending_reply.get((sender, recipient))
        if not queue:
            return None
        record = queue.pop(0)
        if not queue:
            del self._pending_reply[(sender, recipient)]
        return record

    def _pending_discard(self, record: ServerRecord) -> None:
        queue = self._pending_reply.get((record.sender, record.recipient))
        if queue and record in queue:
            queue.remove(record)
            if not queue:
                del self._pending_reply[(record.sender, record.recipient)]

    # ------------------------------------------------------------ client ops

    def client_send(self, pcb: Pcb, dst: Pid, message: Message) -> ClientRecord:
        """Start a blocking Send on behalf of ``pcb``."""
        record = ClientRecord(pcb, dst, message, "send")
        self._begin_client_op(record)
        return record

    def copy_to(self, pcb: Pcb, dst: Pid, pages) -> ClientRecord:
        """Start a blocking CopyTo of page snapshots into ``dst``'s space."""
        if dst.is_global_group:
            raise IpcError("CopyTo to a global group is meaningless")
        record = ClientRecord(pcb, dst, None, "copyto")
        record.pages = tuple(pages)
        self._begin_client_op(record)
        return record

    def copy_from(self, pcb: Pcb, src: Pid, indexes) -> ClientRecord:
        """Start a blocking CopyFrom of pages ``indexes`` out of ``src``."""
        if src.is_global_group:
            raise IpcError("CopyFrom from a global group is meaningless")
        record = ClientRecord(pcb, src, None, "copyfrom")
        record.indexes = tuple(indexes)
        self._begin_client_op(record)
        return record

    def _begin_client_op(self, record: ClientRecord) -> None:
        self.sends += 1
        if self.metrics.active:
            self._m_sends.inc()
        trace = self.sim.trace
        if trace.active:
            record.span_id = trace.begin_span(
                "ipc", record.op, host=self.kernel.name,
                src=str(record.src_pid), dst=str(record.dst),
            )
        if record.pcb.logical_host is not None:
            record.pcb.logical_host.contacted_pids.add(record.dst)
        record.issued_at = self.sim.now
        record.retries_left = self.model.max_retransmissions
        record.pcb.client_record = record
        self._clients[record.key] = record
        self._transmit(record)
        record.timer = self._sched(
            self._record_interval(record), self._retransmit, record
        )

    def _record_interval(self, record: ClientRecord) -> int:
        """Retransmission interval for a record: the base interval, plus
        the full stream time for bulk copies (so a long copy is not
        restarted while still in flight).  With
        ``model.retransmit_backoff > 1`` the interval grows
        exponentially with each burned attempt, capped at
        ``model.retransmit_backoff_cap_us`` -- so retry storms back off
        a lossy segment instead of saturating it."""
        stream_pages = max(len(record.pages), len(record.indexes))
        interval = (self.model.retransmit_interval_us
                    + self.model.bulk_copy_us(PAGE_SIZE) * stream_pages)
        factor = self.model.retransmit_backoff
        if factor > 1.0:
            attempt = self.model.max_retransmissions - record.retries_left
            if attempt > 0:
                interval = min(
                    int(interval * factor ** attempt),
                    max(interval, self.model.retransmit_backoff_cap_us),
                )
        return interval

    def _transmit(self, record: ClientRecord) -> None:
        """Send (or re-send) the request for a client record."""
        dst = record.dst
        if record.is_group:
            self.group_lookups += 1
            self._send_request_packet(record, BROADCAST)
            return
        lhid = dst.logical_host_id
        wellknown = is_wellknown_local_group(dst)
        if wellknown:
            self.group_lookups += 1
        if self.kernel.hosts_lhid(lhid):
            self.local_requests += 1
            delay = self.model.local_rpc_us // 2
            if dst.is_group:
                delay += self.model.group_id_lookup_us
            self._sched(delay, self._deliver_request_local, record)
            return
        address = self.cache.lookup(lhid)
        if address is not None:
            self.remote_requests += 1
            self._send_request_packet(record, address)
        else:
            self._broadcast_ghq(lhid)

    def _send_request_packet(self, record: ClientRecord, address: HostAddress) -> None:
        message = record.message
        if record.op == "copyto":
            # The copy is its own paced stream; the "request" packet
            # kicks it off (see _start_copy_stream).
            self._start_copy_stream(record, address)
            return
        payload = {
            "src": record.src_pid,
            "dst": record.dst,
            "seq": record.seq,
            "message": message,
            "op": record.op,
            "indexes": record.indexes,
        }
        size = message.wire_bytes if message is not None else 32
        self.nic.emit(address, "request", payload, size)

    def _deliver_request_local(self, record: ClientRecord) -> None:
        """Local fast path: hand the request straight to this kernel's
        dispatch, bypassing the wire (still deduplicated)."""
        if record.completed:
            return
        payload = {
            "src": record.src_pid,
            "dst": record.dst,
            "seq": record.seq,
            "message": record.message,
            "op": record.op,
            "indexes": record.indexes,
        }
        if record.op == "copyto":
            self._apply_local_copyto(record)
            return
        self._dispatch_request(payload, origin_addr=None)

    # -------------------------------------------------------- retransmission

    def _retransmit(self, record: ClientRecord) -> None:
        if record.completed:
            return
        if record.key not in self._clients:
            return  # migrated away or cancelled
        if record.retries_left <= 0:
            if (
                not record.used_rebind_fallback
                and not record.is_group
                and self.rebind_enabled
            ):
                # Paper §3.1.4: after a small number of retransmissions,
                # invalidate the cache entry and re-resolve by broadcast.
                record.used_rebind_fallback = True
                record.retries_left = self.model.max_retransmissions
                self.cache.invalidate(record.dst.logical_host_id)
                self.rebinds += 1
                if self.metrics.active:
                    self._m_rebinds.inc()
                self._broadcast_ghq(record.dst.logical_host_id)
            else:
                self._fail_client(record, self._timeout_error(record))
                return
        else:
            record.retries_left -= 1
            self.retransmissions += 1
            if self.metrics.active:
                self._m_retrans.inc()
            self._transmit(record)
        record.timer = self._sched(
            self._record_interval(record), self._retransmit, record
        )

    def _timeout_error(self, record: ClientRecord):
        context = dict(
            src=str(record.src_pid),
            dst=str(record.dst),
            op=record.op,
            retransmissions=self.model.max_retransmissions
            - max(0, record.retries_left),
            rebound=record.used_rebind_fallback,
        )
        if record.op == "send":
            return SendTimeoutError(
                f"send {record.src_pid} -> {record.dst} got no response",
                **context,
            )
        return CopyFailedError(
            f"{record.op} {record.src_pid} -> {record.dst} got no acknowledgement",
            **context,
        )

    def _fail_client(self, record: ClientRecord, error: Exception) -> None:
        if record.completed:
            return
        record.completed = True
        if record.span_id:
            self.sim.trace.end_span(record.span_id, outcome="failed",
                                    error=type(error).__name__)
        if record.timer is not None:
            record.timer.cancel()
        self._clients.pop(record.key, None)
        if record.pcb.client_record is record:
            record.pcb.client_record = None
        if record.pcb.alive:
            self.kernel.scheduler.make_ready(record.pcb, error, throw=True)

    def _complete_client(self, record: ClientRecord, value: Any) -> None:
        if record.completed:
            return
        record.completed = True
        if self.metrics.active:
            self._m_latency[record.op].observe(self.sim.now - record.issued_at)
        if record.span_id:
            self.sim.trace.end_span(record.span_id, outcome="ok")
        if record.timer is not None:
            record.timer.cancel()
        self._clients.pop(record.key, None)
        if record.pcb.client_record is record:
            record.pcb.client_record = None
        if record.pcb.alive:
            self.kernel.scheduler.make_ready(record.pcb, value)

    def cancel_client(self, record: ClientRecord) -> None:
        """Abandon an outstanding op (process destroyed)."""
        record.completed = True
        if record.span_id:
            self.sim.trace.end_span(record.span_id, outcome="cancelled")
        if record.timer is not None:
            record.timer.cancel()
        self._clients.pop(record.key, None)

    # --------------------------------------------------------------- packets

    @staticmethod
    def rx_frame(packet: Packet, transports) -> None:
        """Protocol processing of one frame on every transport that
        received it (the NIC receiver contract), after the kernels'
        per-packet processing time.  The kind is looked up once per
        frame.  A host query is answered only by the kernel hosting the
        logical host; the test runs here, at processing time, because a
        logical host can arrive or leave within the processing delay."""
        kind = packet.kind
        handler = _HANDLERS.get(kind)
        if handler is None:
            raise IpcError(f"unknown packet kind {kind!r}")
        if kind == "ghq":
            lhid = packet.payload["lhid"]
            for transport in transports:
                if lhid in transport.kernel.logical_hosts:
                    handler(transport, packet)
            return
        for transport in transports:
            handler(transport, packet)

    # ---- requests

    def _on_request(self, packet: Packet) -> None:
        payload = packet.payload
        src: Pid = payload["src"]
        self.cache.learn(src.logical_host_id, packet.src)
        dst: Pid = payload["dst"]
        if is_wellknown_local_group(dst):
            # The ~100 us group-id indirection (paper §4.1) applies on
            # the serving side for remote requests too.
            self.group_lookups += 1
            self._sched(
                self.model.group_id_lookup_us,
                self._dispatch_request, payload, packet.src,
            )
            return
        self._dispatch_request(payload, origin_addr=packet.src)

    def _dispatch_request(self, payload: Dict[str, Any], origin_addr) -> None:
        src: Pid = payload["src"]
        dst: Pid = payload["dst"]
        seq: int = payload["seq"]
        if dst.is_global_group:
            for member in self.kernel.groups.local_members(dst):
                pcb = self.kernel.find_pcb(member)
                if pcb is not None and pcb.alive:
                    self._admit_request(src, seq, pcb, payload, origin_addr)
            return  # broadcasts are never NAKed
        if not dst.is_group:
            # Deduplicate before resolving: a retransmission must match
            # its record even if the original recipient has since died
            # (e.g. after forwarding the message on).
            known = self._servers.get((src, seq, dst))
            if known is not None:
                self._handle_duplicate(known, origin_addr)
                return
        elif is_wellknown_local_group(dst):
            # Same, for kernel-server/program-manager addressing: the
            # *logical host* the group id names may be gone by the time a
            # retransmission arrives -- most importantly, a migration's
            # install-state is addressed via the shell's temporary id,
            # which stops resolving the moment the install succeeds.  The
            # retained reply must still be found, or the migration
            # manager wrongly concludes the transfer failed and unfreezes
            # the original copy.
            for candidate in (self.kernel.kernel_server_pcb,
                              self.kernel.program_manager_pcb):
                if candidate is None:
                    continue
                known = self._servers.get((src, seq, candidate.pid))
                if known is not None:
                    self._handle_duplicate(known, origin_addr)
                    return
        recipient = self._resolve_local_recipient(dst, src, seq, origin_addr)
        if recipient is None:
            return  # a NAK was sent (or silently dropped for stale local)
        self._admit_request(src, seq, recipient, payload, origin_addr)

    def _resolve_local_recipient(self, dst: Pid, src: Pid, seq: int, origin_addr):
        """Map an addressed pid to a local PCB, or NAK and return None."""
        lhid = dst.logical_host_id
        if not self.kernel.hosts_lhid(lhid):
            invariants = self.sim.invariants
            if invariants is not None:
                invariants.note_stale_request(lhid, self.kernel.name, self.sim.now)
            self._send_nak("nak-moved", src, seq, dst, origin_addr)
            return None
        if is_wellknown_local_group(dst):
            if dst.index == KERNEL_SERVER_INDEX:
                return self.kernel.kernel_server_pcb
            return self.kernel.program_manager_pcb
        lh = self.kernel.logical_hosts.get(lhid)
        pcb = lh.find_process(dst.local_index) if lh else None
        if pcb is None or not pcb.alive:
            self._send_nak("nak-dead", src, seq, dst, origin_addr)
            return None
        return pcb

    def _admit_request(
        self, src: Pid, seq: int, pcb: Pcb, payload: Dict[str, Any], origin_addr
    ) -> None:
        key = (src, seq, pcb.pid)
        self.frozen_checks += 1
        record = self._servers.get(key)
        if record is not None:
            self._handle_duplicate(record, origin_addr)
            return
        op = payload.get("op", "send")
        if op == "copyfrom":
            self._serve_copyfrom(src, seq, pcb, payload, origin_addr)
            return
        record = ServerRecord(src, seq, pcb.pid, payload["message"], origin_addr)
        self._servers[key] = record
        if pcb.frozen:
            # Paper §3.1.3: queue for the recipient, answer retransmissions
            # with reply-pending.  Queued-unreceived messages are discarded
            # (and their senders re-prompted) if the host migrates away.
            record.queued_frozen = True
            pcb.msg_queue.append(record)
            self._pending_push(record)
            self._send_reply_pending(record)
            return
        self._pending_push(record)
        if pcb.state is ProcessState.RECEIVING:
            record.mark_received()
            invariants = self.sim.invariants
            if invariants is not None:
                invariants.note_request_delivered(
                    record.sender, record.seq, record.recipient
                )
            pcb.messages_received += 1
            self.kernel.scheduler.make_ready(pcb, (src, record.message))
        else:
            pcb.msg_queue.append(record)

    def _handle_duplicate(self, record: ServerRecord, origin_addr) -> None:
        """A retransmission arrived for a request we already know."""
        record.last_activity = self.sim.now
        if origin_addr is not None:
            record.origin_addr = origin_addr  # sender may have migrated
        if record.declined:
            return  # declined group query: stay silent
        if record.replied:
            self._send_reply_packet(record)  # re-send retained reply
        else:
            self._send_reply_pending(record)

    def decline_from(self, pcb: Pcb, dst: Pid) -> None:
        """Drop ``dst``'s pending request without replying; its
        retransmissions are absorbed silently from now on."""
        record = self._pending_pop(dst, pcb.pid)
        if record is None:
            raise IpcError(f"{pcb.name} has no message from {dst} to decline")
        record.declined = True
        record.last_activity = self.sim.now
        self._sched(
            self.model.reply_retention_us, self._expire_server_record, record
        )

    def _send_reply_pending(self, record: ServerRecord) -> None:
        self.reply_pendings_sent += 1
        if self.metrics.active:
            self._m_reply_pendings.inc()
        if record.origin_addr is None:
            client = self._clients.get((record.sender, record.seq))
            if client is not None and not client.completed:
                client.retries_left = self.model.max_retransmissions
            return
        self.nic.emit(
            record.origin_addr,
            "reply-pending",
            {"src": record.sender, "seq": record.seq},
        )

    def _send_nak(self, kind: str, src: Pid, seq: int, dst: Pid, origin_addr) -> None:
        self.naks_sent += 1
        if self.metrics.active:
            self._m_naks.inc()
        if origin_addr is None:
            client = self._clients.get((src, seq))
            if client is not None and not client.completed:
                self._local_nak(client, kind, dst)
            return
        self.nic.emit(origin_addr, kind, {"src": src, "seq": seq, "dst": dst})

    def _local_nak(self, client: ClientRecord, kind: str, dst: Pid) -> None:
        """A locally-dispatched request found no recipient."""
        if kind == "nak-dead":
            self._fail_client(
                client, NoSuchProcessError(f"{dst} does not exist")
            )
        else:
            # Logical host no longer local: restart as a remote send
            # (paper §3.1.3, local senders after a migration).
            self._sched(0, self._transmit, client)

    def _on_reply_pending(self, packet: Packet) -> None:
        payload = packet.payload
        record = self._clients.get((payload["src"], payload["seq"]))
        if record is not None and not record.completed:
            record.retries_left = self.model.max_retransmissions

    def _on_nak_moved(self, packet: Packet) -> None:
        payload = packet.payload
        record = self._clients.get((payload["src"], payload["seq"]))
        if record is None or record.completed:
            return
        if not self.rebind_enabled:
            return  # broken-rebinding test mode: keep using the stale route
        lhid = record.dst.logical_host_id
        self.cache.invalidate(lhid)
        self.rebinds += 1
        if self.metrics.active:
            self._m_rebinds.inc()
        self._broadcast_ghq(lhid)

    def _on_nak_dead(self, packet: Packet) -> None:
        payload = packet.payload
        record = self._clients.get((payload["src"], payload["seq"]))
        if record is None or record.completed:
            return
        self._fail_client(record, NoSuchProcessError(f"{record.dst} does not exist"))

    # ---- replies

    def reply_from(self, pcb: Pcb, dst: Pid, message: Message) -> None:
        """Application-level Reply from ``pcb`` to ``dst``'s pending Send."""
        record = self._pending_pop(dst, pcb.pid)
        if record is None or record.replied:
            raise IpcError(
                f"{pcb.name} has no unreplied message from {dst} to reply to"
            )
        record.replied = True
        record.reply_message = message
        record.last_activity = self.sim.now
        self._send_reply_packet(record)
        self._sched(
            self.model.reply_retention_us, self._expire_server_record, record
        )

    def _send_reply_packet(self, record: ServerRecord) -> None:
        if record.origin_addr is None and self.kernel.hosts_lhid(
            record.sender.logical_host_id
        ):
            client = self._clients.get((record.sender, record.seq))
            if client is not None:
                self._sched(
                    self.model.local_rpc_us // 2,
                    self._complete_client,
                    client,
                    record.reply_message,
                )
            return
        address = record.origin_addr or self.cache.lookup(record.sender.logical_host_id)
        if address is None:
            # Reply target unknown (e.g. a request forwarded to us from the
            # sender's own host): resolve by broadcast and retry while the
            # record is retained.
            self._broadcast_ghq(record.sender.logical_host_id)
            self._sched(
                self.model.retransmit_interval_us // 2, self._retry_reply, record
            )
            return
        message = record.reply_message
        self.nic.emit(
            address,
            "reply",
            {
                "src": record.sender,
                "seq": record.seq,
                "replier": record.recipient,
                "message": message,
            },
            message.wire_bytes if message is not None else 32,
        )

    def _retry_reply(self, record: ServerRecord) -> None:
        if record.key in self._servers and record.replied:
            self._send_reply_packet(record)

    def _expire_server_record(self, record: ServerRecord) -> None:
        """Drop a retained record once its retention window -- extended by
        every retransmission from the sender -- has truly lapsed.  Early
        expiry here would let a late retransmission bypass duplicate
        suppression and deliver the request a second time."""
        deadline = record.last_activity + self.model.reply_retention_us
        if self.sim.now < deadline:
            self._sched(
                deadline - self.sim.now, self._expire_server_record, record
            )
            return
        self._servers.pop(record.key, None)

    def _on_reply(self, packet: Packet) -> None:
        payload = packet.payload
        record = self._clients.get((payload["src"], payload["seq"]))
        if record is None:
            return  # duplicate reply after completion: absorbed
        if record.pcb.frozen:
            # Paper §3.1.3: discard replies to frozen processes; the
            # process keeps retransmitting and recovers the retained
            # reply after migration.
            return
        if record.is_group:
            replier: Pid = payload["replier"]
            self.cache.learn(replier.logical_host_id, packet.src)
            if record.completed:
                record.extra_replies.append((replier, payload["message"]))
                return
            record.first_reply_at = self.sim.now
            record.extra_replies.append((replier, payload["message"]))
            self._complete_group_client(record, payload["message"])
            return
        self._complete_client(record, payload["message"])

    def _complete_group_client(self, record: ClientRecord, message: Message) -> None:
        """First reply to a group send completes it, but the record stays
        registered briefly to absorb (and count) later replies."""
        record.completed = True
        if self.metrics.active:
            self._m_latency[record.op].observe(self.sim.now - record.issued_at)
        if record.span_id:
            self.sim.trace.end_span(record.span_id, outcome="ok")
        if record.timer is not None:
            record.timer.cancel()
        if record.pcb.client_record is record:
            record.pcb.client_record = None
        if record.pcb.alive:
            self.kernel.scheduler.make_ready(record.pcb, message)
        self._sched(self.model.reply_retention_us, self._expire_client, record.key)

    def _expire_client(self, key) -> None:
        """Drop a completed client record once its reply-retention window
        lapses (bound method: the retention sweep used to be the
        transport's last per-call closure allocation)."""
        self._clients.pop(key, None)

    def group_replies(self, pcb: Pcb) -> List[Tuple[Pid, Message]]:
        """All replies collected so far for the process's most recent
        group send (the V GetReply facility, used to observe how many
        hosts answered a ``@ *`` query)."""
        best: Optional[ClientRecord] = None
        for record in self._clients.values():
            if record.src_pid == pcb.pid and record.is_group:
                if best is None or record.seq > best.seq:
                    best = record
        return list(best.extra_replies) if best else []

    # ---- forwarding

    def forward_from(self, pcb: Pcb, original_sender: Pid, message: Message, to: Pid) -> None:
        """V Forward: ``pcb`` re-targets a received-but-unreplied message
        so that ``to`` receives it (apparently from ``original_sender``)
        and will Reply in our place."""
        record = self._pending_pop(original_sender, pcb.pid)
        if record is None:
            raise IpcError(
                f"{pcb.name} holds no unreplied message from {original_sender}"
            )
        record.forwarded = True
        record.last_activity = self.sim.now
        # The forwarder is no longer responsible for a reply; keep the
        # record only to absorb retransmissions, then let it expire.
        self._sched(
            self.model.reply_retention_us, self._expire_server_record, record
        )
        payload = {
            "src": original_sender,
            "dst": to,
            "seq": record.seq,
            "message": message,
            "op": "send",
            "indexes": (),
        }
        if self.kernel.hosts_lhid(to.logical_host_id):
            self._dispatch_request(payload, origin_addr=record.origin_addr)
            return
        address = self.cache.lookup(to.logical_host_id)
        if address is None:
            self._broadcast_ghq(to.logical_host_id)
            # Best effort: retry the forward shortly; the sender's
            # retransmissions to us keep the operation alive meanwhile.
            self._sched(
                self.model.retransmit_interval_us // 2,
                self._retry_forward,
                record,
                message,
                to,
            )
            return
        self.nic.emit(
            address,
            "forward",
            dict(payload, origin=record.origin_addr),
            message.wire_bytes if message is not None else 32,
        )

    def _retry_forward(self, record: ServerRecord, message: Message, to: Pid) -> None:
        address = self.cache.lookup(to.logical_host_id)
        if address is None:
            self._broadcast_ghq(to.logical_host_id)
            self._sched(
                self.model.retransmit_interval_us,
                self._retry_forward,
                record,
                message,
                to,
            )
            return
        payload = {
            "src": record.sender,
            "dst": to,
            "seq": record.seq,
            "message": message,
            "op": "send",
            "indexes": (),
            "origin": record.origin_addr,
        }
        self.nic.emit(
            address, "forward", payload,
            message.wire_bytes if message is not None else 32,
        )

    def _on_forward(self, packet: Packet) -> None:
        payload = dict(packet.payload)
        origin = payload.pop("origin", None)
        src: Pid = payload["src"]
        if origin is not None:
            self.cache.learn(src.logical_host_id, origin)
        self._dispatch_request(payload, origin_addr=origin)

    # ---- host queries (lhid -> physical address)

    def _broadcast_ghq(self, lhid: int) -> None:
        self.nic.emit(BROADCAST, "ghq", {"lhid": lhid})

    def _on_ghq(self, packet: Packet) -> None:
        """Answer a host query for a logical host hosted here
        (:meth:`rx_frame` filters out every other kernel)."""
        self.nic.emit(
            packet.src,
            "ghq-reply",
            {"lhid": packet.payload["lhid"], "address": self.nic.address},
        )

    def _on_ghq_reply(self, packet: Packet) -> None:
        lhid = packet.payload["lhid"]
        self.cache.learn(lhid, packet.payload["address"])
        # Kick every stalled client op waiting on this logical host.
        for record in list(self._clients.values()):
            if record.dst.logical_host_id == lhid and not record.completed:
                self._transmit(record)

    def announce_binding(self, lhid: int) -> None:
        """Broadcast that this host now hosts ``lhid`` (the eager-rebind
        optimization the paper mentions in §3.1.4)."""
        self.nic.emit(
            BROADCAST, "binding", {"lhid": lhid, "address": self.nic.address}
        )

    def _on_binding(self, packet: Packet) -> None:
        self.cache.learn(packet.payload["lhid"], packet.payload["address"])

    # ---- bulk copies (see repro.ipc.copyops for the engine)

    def _start_copy_stream(self, record: ClientRecord, address: HostAddress) -> None:
        self.copies.start_stream(record, address)

    def _apply_local_copyto(self, record: ClientRecord) -> None:
        self.copies.apply_local_copyto(record)

    def _serve_copyfrom(self, src, seq, pcb, payload, origin_addr) -> None:
        self.copies.serve_copyfrom(src, seq, pcb, payload, origin_addr)

    def _find_copy_target(self, dst: Pid) -> Optional[Pcb]:
        return self.copies.find_copy_target(dst)

    def _on_copy_data(self, packet: Packet) -> None:
        self.copies.on_copy_data(packet)

    def _on_copy_burst(self, packet: Packet) -> None:
        self.copies.on_copy_burst(packet)

    def _on_copy_nak(self, packet: Packet) -> None:
        self.copies.on_copy_nak(packet)

    def _on_copy_end(self, packet: Packet) -> None:
        self.copies.on_copy_end(packet)

    def _on_copy_ack(self, packet: Packet) -> None:
        self.copies.on_copy_ack(packet)

    def _on_copyfrom_data(self, packet: Packet) -> None:
        self.copies.on_copyfrom_data(packet)

    def _on_copyfrom_burst(self, packet: Packet) -> None:
        self.copies.on_copyfrom_burst(packet)

    def _on_copyfrom_nak(self, packet: Packet) -> None:
        self.copies.on_copyfrom_nak(packet)

    def _on_copyfrom_end(self, packet: Packet) -> None:
        self.copies.on_copyfrom_end(packet)

    # --------------------------------------------------- migration interface

    def extract_for_migration(self, logical_host) -> Dict[str, Any]:
        """Collect the transport state that must travel with a logical
        host: outstanding client ops and received-or-replied server
        records whose recipient lives in it.  Queued-but-unreceived
        messages deliberately stay behind (paper: discarded on delete,
        senders re-prompted)."""
        pids = set(logical_host.pids())
        clients = []
        for key, record in list(self._clients.items()):
            if record.src_pid in pids:
                if record.timer is not None:
                    record.timer.cancel()
                del self._clients[key]
                clients.append(record)
        servers = []
        for key, record in list(self._servers.items()):
            if record.recipient in pids and (record.received or record.replied):
                del self._servers[key]
                self._pending_discard(record)
                servers.append(record)
        return {"clients": clients, "servers": servers}

    def adopt_from_migration(self, state: Dict[str, Any]) -> None:
        """Install transport state extracted on the source host."""
        for record in state["clients"]:
            self._clients[record.key] = record
            if not record.completed:
                record.retries_left = self.model.max_retransmissions
                record.timer = self._sched(0, self._retransmit_adopted, record)
        for record in state["servers"]:
            self._servers[record.key] = record
            if not record.replied:
                self._pending_push(record)
            else:
                self._sched(
                    self.model.reply_retention_us, self._expire_server_record, record
                )

    def _retransmit_adopted(self, record: ClientRecord) -> None:
        """First transmission from the new host after adoption."""
        if record.completed:
            return
        self._transmit(record)
        record.timer = self._sched(
            self._record_interval(record), self._retransmit, record
        )

    def discard_queued_for(self, pcb: Pcb) -> None:
        """Drop queued-unreceived messages of a migrated-away process and
        prompt their senders to retransmit (they will re-resolve the
        logical host and reach the new copy)."""
        for record in pcb.msg_queue:
            if record.received:
                continue
            self._servers.pop(record.key, None)
            self._pending_discard(record)
            self._send_nak("nak-moved", record.sender, record.seq, record.recipient,
                           record.origin_addr)
        pcb.msg_queue.clear()

    def deliver_queued(self, pcb: Pcb) -> None:
        """Hand the oldest queued message to a process blocked in Receive
        (used at unfreeze: messages queued during the freeze must reach a
        receiver that was already waiting)."""
        if pcb.state is not ProcessState.RECEIVING or not pcb.msg_queue:
            return
        record = pcb.msg_queue.pop(0)
        record.mark_received()
        invariants = self.sim.invariants
        if invariants is not None:
            invariants.note_request_delivered(
                record.sender, record.seq, record.recipient
            )
        pcb.messages_received += 1
        self.kernel.scheduler.make_ready(pcb, (record.sender, record.message))

    def nak_deferred(self, deferred, recipient_pid: Pid) -> None:
        """NAK the senders of requests that were deferred while frozen and
        can no longer be served here (the logical host migrated away);
        their retransmissions will re-resolve and reach the new host."""
        for sender, _msg in deferred:
            record = self._pending_pop(sender, recipient_pid)
            if record is None:
                continue
            self._servers.pop(record.key, None)
            self._send_nak(
                "nak-moved", sender, record.seq, record.recipient, record.origin_addr
            )

    def purge_process(self, pcb: Pcb) -> None:
        """Forget all transport state of a destroyed process."""
        if pcb.client_record is not None:
            self.cancel_client(pcb.client_record)
            pcb.client_record = None
        for key, record in list(self._servers.items()):
            if record.recipient != pcb.pid:
                continue
            if record.replied or record.forwarded:
                # Retained replies (and forwarded records) outlive the
                # process: the kernel keeps them for retransmissions
                # until their retention timers expire.
                continue
            del self._servers[key]
            self._pending_discard(record)


#: packet kind -> Transport handler: the one receive dispatch table, for
#: unicast and broadcast frames alike (see Transport.rx_frame).
_HANDLERS = {
    "request": Transport._on_request,
    "reply": Transport._on_reply,
    "reply-pending": Transport._on_reply_pending,
    "nak-moved": Transport._on_nak_moved,
    "nak-dead": Transport._on_nak_dead,
    "forward": Transport._on_forward,
    "ghq": Transport._on_ghq,
    "ghq-reply": Transport._on_ghq_reply,
    "binding": Transport._on_binding,
    "copy-data": Transport._on_copy_data,
    "copy-burst": Transport._on_copy_burst,
    "copy-nak": Transport._on_copy_nak,
    "copy-end": Transport._on_copy_end,
    "copy-ack": Transport._on_copy_ack,
    "copyfrom-data": Transport._on_copyfrom_data,
    "copyfrom-burst": Transport._on_copyfrom_burst,
    "copyfrom-nak": Transport._on_copyfrom_nak,
    "copyfrom-end": Transport._on_copyfrom_end,
}
