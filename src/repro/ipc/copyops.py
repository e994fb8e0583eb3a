"""Bulk page transfers: the CopyTo/CopyFrom engine.

V moves address-space contents with interprocess copy operations
(paper §3.1.1: "the standard interprocess copy operations, CopyTo and
CopyFrom, [are] used to copy the bulk of the program state").  The
engine paces page-sized data packets at the calibrated 3 s/MB, ends each
run with an acknowledgement hand-shake, and recovers lost packets by
**selective retransmission**: the receiver NAKs exactly the missing page
indexes rather than forcing a restart of a multi-second stream.

Every ``copy-data`` and ``copyfrom-data`` frame carries one page as a
``(stream_key, index, version)`` tuple, with ``stream_key = (src_pid,
seq)`` built once per stream.  The receiving end buffers the tuples and
turns a run's pages into :class:`PageSnapshot` objects once, at the
run's end frame.  A lossless segment folds ``copy-data`` frames
(``Transport.rx_folds``, :mod:`repro.net.ethernet`): they get no event
of their own and are processed before the receiving NIC's next landing,
which for a stream that runs to the end is its ``copy-end``.  A stream
that stops without one settles its folded pages from the pacing event
that finds it stopped, or when its NIC is detached.

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


class PageSnapshot:
    """An (index, version) capture of one page at its send instant, as
    a copy run's receiver applies or returns it."""

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
        # Pages/bytes this host pushed out via copy ops (repro.obs).
        m = self.sim.metrics
        self.metrics = m
        host = transport.kernel.name
        self._m_pages = m.counter("ipc.copy_pages", host)
        self._m_bytes = m.counter("ipc.copy_bytes", host)
        #: In-progress inbound copies: stream key (src, seq) -> its
        #: page frames ``(stream_key, index, version)`` in arrival order.
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
        self._send_page(record, address, record.pages, 0, record.key)

    def _send_page(self, record, address, pages, i: int, key) -> None:
        if record.completed:
            # Stopped without a copy-end: the pages already sent must
            # not wait for one at the receiver.
            ethernet = self.nic.ethernet
            if ethernet is not None:
                ethernet.settle(self.nic.address, address)
            return
        if i >= len(pages):
            self._send_end(record, address)
            return
        page = pages[i]
        index = page.index
        if self.metrics.active:
            self._m_pages.inc()
            self._m_bytes.inc(PAGE_SIZE)
        self.nic.emit(
            address, "copy-data", (key, index, page.space.versions[index]),
            PAGE_SIZE,
        )
        self._sched(self._page_us, self._send_page, record, address, pages,
                    i + 1, key)

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
        (selective retransmission), then re-announce the end of the run."""
        payload = packet.payload
        record = self._client(payload)
        if record is None or record.completed or record.op != "copyto":
            return
        by_index = {page.index: page for page in record.pages}
        pages = [by_index[i] for i in payload["missing"] if i in by_index]
        if pages:
            self._send_page(record, packet.src, pages, 0, record.key)

    def on_copy_end(self, packet: Packet) -> None:
        payload = packet.payload
        src: Pid = payload["src"]
        dst: Pid = payload["dst"]
        seq: int = payload["seq"]
        key = (src, seq)
        newest = self._newest(self.inbound.get(key, ()))
        if len(newest) < payload["count"]:
            # Lost data packets: ask for exactly the missing pages.
            # Distinct indexes are what count: earlier restarts deliver
            # duplicates that must not mask a still-missing page.
            missing = tuple(
                i for i in payload.get("indexes", ()) if i not in newest
            )
            if missing:
                self.nic.emit(
                    packet.src, "copy-nak",
                    {"src": src, "seq": seq, "missing": missing},
                )
            return
        pcb = self.find_copy_target(dst)
        if pcb is None:
            self.inbound.pop(key, None)
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
        pcb.space.apply_copy(
            [PageSnapshot(index, version) for index, version in newest.items()]
        )
        self.inbound.pop(key, None)
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
        # (index, version) captures of the requested pages; indexes
        # outside the space (the list comes from a remote kernel) are
        # skipped.
        items = pcb.space.version_items(payload["indexes"])
        if origin_addr is None:
            record = self.transport._clients.get((src, seq))
            if record is not None:
                cost = self.model.local_copy_us_per_page * len(items)
                self._sched(
                    cost, self.transport._complete_client, record,
                    [PageSnapshot(i, v) for i, v in items],
                )
            return
        self.served_copyfrom.setdefault((src, seq), pcb.pid)
        self._stream_reply((src, seq), items, origin_addr, 0)

    def _stream_reply(self, key, items, address, i) -> None:
        if i < len(items):
            if self.metrics.active:
                self._m_pages.inc()
                self._m_bytes.inc(PAGE_SIZE)
            index, version = items[i]
            self.nic.emit(
                address, "copyfrom-data", (key, index, version), PAGE_SIZE,
            )
            self._sched(
                self._page_us, self._stream_reply, key, items, address, i + 1,
            )
            return
        self._end_reply(key, items, address)

    def _end_reply(self, key, items, address) -> None:
        indexes = tuple(index for index, _ in items)
        self.nic.emit(
            address, "copyfrom-end",
            {"src": key[0], "seq": key[1], "count": len(set(indexes)),
             "indexes": indexes},
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
        items = pcb.space.version_items(payload["missing"])
        self._stream_reply((payload["src"], payload["seq"]), items,
                           packet.src, 0)

    def on_copyfrom_data(self, packet: Packet) -> None:
        page = packet.payload
        record = self.transport._clients.get(page[0])
        if record is not None and not record.completed:
            record.received_pages.append(page)

    def on_copyfrom_end(self, packet: Packet) -> None:
        payload = packet.payload
        record = self._client(payload)
        if record is None or record.completed:
            return
        newest = self._newest(record.received_pages)
        if len(newest) < payload["count"]:
            missing = tuple(
                i for i in payload.get("indexes", ()) if i not in newest
            )
            if missing:
                self.nic.emit(
                    packet.src, "copyfrom-nak",
                    {"src": payload["src"], "seq": payload["seq"],
                     "missing": missing},
                )
            return
        self.transport._complete_client(
            record, [PageSnapshot(i, newest[i]) for i in sorted(newest)]
        )

    @staticmethod
    def _newest(pages) -> Dict[int, int]:
        """Page index -> newest version among a run's page frames, in
        first-arrival order (restarts deliver duplicates)."""
        newest: Dict[int, int] = {}
        for _, index, version in pages:
            if newest.get(index, -1) < version:
                newest[index] = version
        return newest
