"""Bulk page transfers: the CopyTo/CopyFrom engine.

V moves address-space contents with interprocess copy operations
(paper §3.1.1: "the standard interprocess copy operations, CopyTo and
CopyFrom, [are] used to copy the bulk of the program state").  The
engine paces page-sized data packets at the calibrated 3 s/MB, ends each
run with an acknowledgement hand-shake, and recovers lost packets by
**selective retransmission**: the receiver NAKs exactly the missing page
indexes rather than forcing a restart of a multi-second stream.

The engine is owned by (and operates on the private state of) one
:class:`~repro.ipc.transport.Transport`; it exists as its own module
because the streaming/recovery logic is a protocol of its own.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.config import PAGE_SIZE
from repro.errors import NoSuchProcessError
from repro.kernel.ids import Pid
from repro.net.packet import Packet


class _PlantedFlags:
    """Deliberate, named bugs for the differential verification harness
    (:mod:`repro.verify.mutation`).  Every flag defaults False and the
    shipped engine never sets one; the mutation-smoke tests plant one,
    prove the toggle-matrix explorer catches it, and clear it again.
    """

    __slots__ = ("burst_skip_copy_end",)

    def __init__(self) -> None:
        self.burst_skip_copy_end = False


#: Process-wide planted-bug switch block (see :class:`_PlantedFlags`).
_PLANTED = _PlantedFlags()


class PageSnapshot:
    """An (index, version) capture of one page at its send instant."""

    __slots__ = ("index", "version")

    def __init__(self, index: int, version: int):
        self.index = index
        self.version = version


def _snapshot_pages(pages) -> list:
    """Point-in-time captures of ``pages`` (views of one space), batched
    off the flat version array instead of one property call per page."""
    if not pages:
        return []
    versions = pages[0].space.versions
    return [PageSnapshot(p.index, versions[p.index]) for p in pages]


class CopyEngine:
    """Paced, loss-recovering page streams for one transport."""

    def __init__(self, transport):
        self.transport = transport
        self.sim = transport.sim
        #: Cached bound ``sim.schedule`` for the pacing loops.
        self._sched = self.sim.schedule
        self.model = transport.model
        #: The per-page pace, computed once (the model is frozen).
        self._page_us = self.model.bulk_copy_us(PAGE_SIZE)
        self.nic = transport.nic
        #: Pages per packet blast; 1 = the per-page stream (one frame and
        #: one pacing timer per page).
        self._burst_pages = self.model.copy_burst_pages
        # ---- plain-int data-plane counters (benchmark A/B payloads)
        #: Pacing timers scheduled for outbound copy streams.
        self.pacing_events = 0
        #: Burst frames emitted (0 unless burst pacing is on).
        self.bursts = 0
        # Pages/bytes this host pushed out via copy ops (repro.obs).
        m = self.sim.metrics
        self.metrics = m
        host = transport.kernel.name
        self._m_pages = m.counter("ipc.copy_pages", host)
        self._m_bytes = m.counter("ipc.copy_bytes", host)
        self._m_bursts = m.counter("copy.bursts", host)
        #: In-progress inbound copies: (src, seq) -> buffered snapshots.
        self.inbound: Dict[Tuple[Pid, int], list] = {}
        #: CopyFrom requests we served: (src, seq) -> source pid, kept for
        #: selective retransmission of lost reply pages.
        self.served_copyfrom: Dict[Tuple[Pid, int], Pid] = {}

    # ------------------------------------------------------------ utilities

    def find_copy_target(self, dst: Pid):
        """The local PCB whose space a copy addresses (stubs included)."""
        lh = self.transport.kernel.logical_hosts.get(dst.logical_host_id)
        if lh is None:
            return None
        return lh.find_process(dst.local_index)

    def _client(self, payload):
        return self.transport._clients.get((payload["src"], payload["seq"]))

    # ------------------------------------------------------- CopyTo (push)

    def start_stream(self, record, address) -> None:
        """Begin (or restart, after a retransmission) a paced CopyTo."""
        pages = record.pages
        if self._burst_pages > 1:
            self._send_burst(record, address, pages, 0)
        else:
            self._send_page(record, address, pages, 0)

    def _send_page(self, record, address, pages, i: int) -> None:
        if record.completed:
            return
        if i >= len(pages):
            self._send_end(record, address)
            return
        page = pages[i]
        index = page.index
        snapshot = PageSnapshot(index, page.space.versions[index])
        if self.metrics.active:
            self._m_pages.inc()
            self._m_bytes.inc(PAGE_SIZE)
        self.nic.emit(
            address, "copy-data",
            {"src": record.src_pid, "dst": record.dst, "seq": record.seq,
             "snapshot": snapshot},
            PAGE_SIZE,
        )
        self.pacing_events += 1
        self._sched(self._page_us, self._send_page, record, address, pages,
                    i + 1)

    def _send_burst(self, record, address, pages, i: int) -> None:
        """One K-page packet blast: a single frame carrying the burst's
        snapshots, a single pacing timer for the whole burst.  The next
        burst goes out where the K-th per-page packet would have -- the
        intra-burst send times are advanced arithmetically instead of
        through the heap -- so the stream holds the calibrated 3 s/MB
        with ~K x fewer simulator events."""
        if record.completed:
            return
        n = len(pages)
        if i >= n:
            if not _PLANTED.burst_skip_copy_end:
                self._send_end(record, address)
            return
        snapshots = _snapshot_pages(pages[i:i + self._burst_pages])
        k = len(snapshots)
        self.bursts += 1
        if self.metrics.active:
            self._m_bursts.inc()
            self._m_pages.inc(k)
            self._m_bytes.inc(PAGE_SIZE * k)
        self.nic.emit(
            address, "copy-burst",
            {"src": record.src_pid, "dst": record.dst, "seq": record.seq,
             "snapshots": snapshots},
            PAGE_SIZE * k,
        )
        self.pacing_events += 1
        self._sched(
            k * self._page_us,
            self._send_burst, record, address, pages, i + k,
        )

    def _send_end(self, record, address) -> None:
        indexes = record.page_indexes
        if indexes is None:
            indexes = record.page_indexes = tuple(
                page.index for page in record.pages
            )
        self.nic.emit(
            address, "copy-end",
            {"src": record.src_pid, "dst": record.dst, "seq": record.seq,
             "count": len(set(indexes)),
             "indexes": indexes},
        )

    def on_copy_nak(self, packet: Packet) -> None:
        """The receiver is missing specific pages: re-stream just those
        (selective retransmission), then re-announce the end of the run.
        Page-granular even when the stream went out as bursts -- a NAK
        for pages lost mid-burst must not re-send the whole blast."""
        payload = packet.payload
        record = self._client(payload)
        if record is None or record.completed or record.op != "copyto":
            return
        by_index = {page.index: page for page in record.pages}
        pages = [by_index[i] for i in payload["missing"] if i in by_index]
        if pages:
            self._send_page(record, packet.src, pages, 0)

    def on_copy_burst(self, packet: Packet) -> None:
        payload = packet.payload
        key = (payload["src"], payload["seq"])
        self.inbound.setdefault(key, []).extend(payload["snapshots"])

    def on_copy_end(self, packet: Packet) -> None:
        payload = packet.payload
        src: Pid = payload["src"]
        dst: Pid = payload["dst"]
        seq: int = payload["seq"]
        snapshots = self.inbound.get((src, seq), [])
        received = {snap.index for snap in snapshots}
        if len(received) < payload["count"]:
            # Lost data packets: ask for exactly the missing pages.
            # Distinct indexes are what count: earlier restarts deliver
            # duplicates that must not mask a still-missing page.
            missing = tuple(
                i for i in payload.get("indexes", ()) if i not in received
            )
            if missing:
                self.nic.emit(
                    packet.src, "copy-nak",
                    {"src": src, "seq": seq, "missing": missing},
                )
            return
        pcb = self.find_copy_target(dst)
        if pcb is None:
            self.transport._send_nak("nak-dead", src, seq, dst, packet.src)
            return
        lh = pcb.logical_host
        if lh is not None and lh.frozen and not lh.is_shell:
            # Paper footnote 5: "we treat a CopyTo operation to a process
            # as a request message" -- so a copy into a frozen logical
            # host defers like any request.  A reply-pending keeps the
            # sender alive; its retransmission restarts the stream, which
            # lands wherever the logical host is once unfrozen.
            self.nic.emit(
                packet.src, "reply-pending", {"src": src, "seq": seq}
            )
            return
        pcb.space.apply_copy(self._dedupe(snapshots).values())
        self.inbound.pop((src, seq), None)
        self.nic.emit(
            packet.src, "copy-ack",
            {"src": src, "seq": seq, "count": payload["count"]},
        )

    def on_copy_ack(self, packet: Packet) -> None:
        record = self._client(packet.payload)
        if record is not None:
            self.transport._complete_client(record, packet.payload["count"])

    def apply_local_copyto(self, record) -> None:
        """CopyTo within one workstation: a paced local memcpy."""
        pcb = self.find_copy_target(record.dst)
        if pcb is None:
            self.transport._fail_client(
                record, NoSuchProcessError(f"{record.dst} not found")
            )
            return
        cost = self.model.local_copy_us_per_page * len(record.pages)
        snapshots = _snapshot_pages(record.pages)
        if self.metrics.active:
            self._m_pages.inc(len(snapshots))
            self._m_bytes.inc(PAGE_SIZE * len(snapshots))

        self._sched(cost, self._apply_local_copyto, record, snapshots)

    def _apply_local_copyto(self, record, snapshots) -> None:
        """Land a local CopyTo after its modelled copy cost (bound
        method; the landing used to be a per-call closure)."""
        target = self.find_copy_target(record.dst)
        if target is None:
            self.transport._fail_client(
                record, NoSuchProcessError(f"{record.dst} vanished")
            )
            return
        target.space.apply_copy(snapshots)
        self.transport._complete_client(record, len(snapshots))

    # ----------------------------------------------------- CopyFrom (pull)

    def serve_copyfrom(self, src: Pid, seq: int, pcb, payload, origin_addr) -> None:
        """Answer a CopyFrom: stream the requested pages back."""
        indexes = payload["indexes"]
        snapshots = self._snapshot(pcb, indexes)
        if origin_addr is None:
            record = self.transport._clients.get((src, seq))
            if record is not None:
                cost = self.model.local_copy_us_per_page * len(snapshots)
                self._sched(
                    cost, self.transport._complete_client, record, snapshots
                )
            return
        self.served_copyfrom.setdefault((src, seq), pcb.pid)
        if self._burst_pages > 1:
            self._stream_reply_burst(src, seq, snapshots, origin_addr, 0)
        else:
            self._stream_reply(src, seq, snapshots, origin_addr, 0)

    @staticmethod
    def _snapshot(pcb, indexes):
        """Captures of the requested pages; indexes outside the space
        (the list comes from a remote kernel) are skipped."""
        return [PageSnapshot(i, v) for i, v in pcb.space.version_items(indexes)]

    def _stream_reply(self, src, seq, snapshots, address, i) -> None:
        if i < len(snapshots):
            if self.metrics.active:
                self._m_pages.inc()
                self._m_bytes.inc(PAGE_SIZE)
            self.nic.emit(
                address, "copyfrom-data",
                {"src": src, "seq": seq, "snapshot": snapshots[i]},
                PAGE_SIZE,
            )
            self.pacing_events += 1
            self._sched(
                self._page_us,
                self._stream_reply, src, seq, snapshots, address, i + 1,
            )
            return
        self._end_reply(src, seq, snapshots, address)

    def _stream_reply_burst(self, src, seq, snapshots, address, i) -> None:
        """Burst-paced CopyFrom reply (mirror of :meth:`_send_burst`)."""
        if i < len(snapshots):
            chunk = snapshots[i:i + self._burst_pages]
            k = len(chunk)
            self.bursts += 1
            if self.metrics.active:
                self._m_bursts.inc()
                self._m_pages.inc(k)
                self._m_bytes.inc(PAGE_SIZE * k)
            self.nic.emit(
                address, "copyfrom-burst",
                {"src": src, "seq": seq, "snapshots": chunk},
                PAGE_SIZE * k,
            )
            self.pacing_events += 1
            self._sched(
                k * self._page_us,
                self._stream_reply_burst, src, seq, snapshots, address, i + k,
            )
            return
        self._end_reply(src, seq, snapshots, address)

    def _end_reply(self, src, seq, snapshots, address) -> None:
        self.nic.emit(
            address, "copyfrom-end",
            {"src": src, "seq": seq,
             "count": len({s.index for s in snapshots}),
             "indexes": tuple(s.index for s in snapshots)},
        )

    def on_copyfrom_nak(self, packet: Packet) -> None:
        """The requester is missing pages of a CopyFrom we served:
        re-snapshot and re-stream just those."""
        payload = packet.payload
        served_pid = self.served_copyfrom.get((payload["src"], payload["seq"]))
        if served_pid is None:
            return
        pcb = self.find_copy_target(served_pid)
        if pcb is None:
            return
        snapshots = self._snapshot(pcb, payload["missing"])
        self._stream_reply(payload["src"], payload["seq"], snapshots,
                           packet.src, 0)

    def on_copyfrom_data(self, packet: Packet) -> None:
        record = self._client(packet.payload)
        if record is not None and not record.completed:
            record.received_snapshots.append(packet.payload["snapshot"])

    def on_copyfrom_burst(self, packet: Packet) -> None:
        record = self._client(packet.payload)
        if record is not None and not record.completed:
            record.received_snapshots.extend(packet.payload["snapshots"])

    def on_copyfrom_end(self, packet: Packet) -> None:
        payload = packet.payload
        record = self._client(payload)
        if record is None or record.completed:
            return
        received = {snap.index for snap in record.received_snapshots}
        if len(received) < payload["count"]:
            missing = tuple(
                i for i in payload.get("indexes", ()) if i not in received
            )
            if missing:
                self.nic.emit(
                    packet.src, "copyfrom-nak",
                    {"src": payload["src"], "seq": payload["seq"],
                     "missing": missing},
                )
            return
        deduped = self._dedupe(record.received_snapshots)
        self.transport._complete_client(
            record, sorted(deduped.values(), key=lambda s: s.index)
        )

    @staticmethod
    def _dedupe(snapshots) -> Dict[int, PageSnapshot]:
        """Newest version per page index wins."""
        deduped: Dict[int, PageSnapshot] = {}
        for snap in snapshots:
            existing = deduped.get(snap.index)
            if existing is None or snap.version > existing.version:
                deduped[snap.index] = snap
        return deduped
