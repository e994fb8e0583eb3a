"""The shared-bus Ethernet model.

One transmission at a time: a send that finds the bus busy queues behind
the in-flight frame (this is what makes bulk CopyTo traffic contend with
IPC traffic, as on the paper's real 10 Mbit segment).  Broadcast frames
are delivered to every attached NIC except the sender's.

A delivered frame is not processed on arrival: every receiver charges a
protocol-processing delay first (``rx_delay_us``, see
:mod:`repro.net.nic`), and the segment schedules the processing.

* **Coalesced receive processing.**  Every kernel charges the same
  delay, so one frame delivered to many NICs (a broadcast) -- or
  back-to-back frames arriving in one event -- produces a run of
  processing steps at the *same* simulated time with *consecutive*
  sequence numbers.  :meth:`Ethernet.schedule_rx` batches such a run
  into one scheduled event.  Coalescing only happens while ``sim._seq``
  has not moved since the batch was opened, which proves no foreign
  event can sort between the batched steps; running them back-to-back
  inside one event is therefore order-identical to running them as
  separate events.  Each receiving handler still counts as one
  processed event, so budgets and event counts equal those of one event
  per receiver.
* **One pass per broadcast.**  Each source's receiver list
  (address-sorted, sender excluded) is cached until the next
  attach/detach.  A broadcast walks it once, does the per-receiver
  accounting and loss draws in that order, and hands the frame to the
  rx batch as one item per run of receivers sharing a ``rx_frame`` and
  delay -- one item for a whole cluster of kernels.  Segments with a
  fault plane deliver per NIC instead, so duplicate and delay timers
  keep their place in the schedule.
* **Lossless unicast in one hop.**  On a segment with no fault plane
  and :class:`NoLoss`, :meth:`Ethernet._deliver` counts a unicast frame
  and hands it to the rx batch itself; every copied page takes this
  path.  Lossy and fault-plane segments deliver through
  ``_deliver_one``/``_arrive``, so loss draws and duplicate/delay
  timers stay where they were.  The NIC table is keyed by the
  address's int value and wire times are cached per frame size.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import DEFAULT_MODEL, HardwareModel
from repro.errors import SimulationError
from repro.net.addresses import HostAddress
from repro.net.loss import LossModel, NoLoss
from repro.net.packet import Packet


class Ethernet:
    """A single broadcast segment connecting all simulated hosts."""

    def __init__(
        self,
        sim,
        model: HardwareModel = DEFAULT_MODEL,
        loss: Optional[LossModel] = None,
        faults=None,
    ):
        self.sim = sim
        #: Cached bound ``sim.schedule`` for the delivery hot path.
        self._sched = sim.schedule
        self.model = model
        self.loss = loss if loss is not None else NoLoss()
        #: Optional :class:`repro.faults.models.FaultPlane`; None (the
        #: default) keeps the delivery path on the one-branch loss check.
        self.faults = faults
        if faults is not None:
            faults.bind_metrics(sim.metrics)
        #: address value -> NIC: an int key, so a lookup runs no Python
        #: ``__hash__``.
        self._nics: Dict[int, "Nic"] = {}
        #: source address value -> the NICs its broadcasts reach, in
        #: deterministic (address-sorted) delivery order; built lazily
        #: and dropped wholesale on attach/detach.
        self._receivers: Dict[int, List["Nic"]] = {}
        #: frame size -> wire time (the model is frozen, so never stale).
        self._wire_us: Dict[int, int] = {}
        #: Earliest time the bus is free for the next transmission.
        self._busy_until = 0
        #: Counters for experiment reports.
        self.packets_sent = 0
        self.packets_dropped = 0
        self.bytes_sent = 0
        #: Same-tick receive-processing events coalesced into one.
        self.rx_coalesced = 0
        #: The open batch: [time, guard_seq, items, handler_count].
        self._rx_batch: Optional[list] = None
        # Per-source instruments, labelled by str(address) -- the net
        # layer has no workstation names (repro.obs metric catalog).
        self.metrics = sim.metrics
        self._m_tx: Dict[HostAddress, tuple] = {}
        self._m_drops: Dict[HostAddress, object] = {}
        self._m_bus_wait = sim.metrics.counter("net.bus_wait_us")

    # ----------------------------------------------------------- attachment

    def attach(self, nic: "Nic") -> None:
        """Connect a NIC to the segment; its address must be unique."""
        if nic.address.value in self._nics:
            raise SimulationError(f"duplicate host address {nic.address}")
        if nic.address.is_broadcast:
            raise SimulationError("cannot attach a NIC at the broadcast address")
        self._nics[nic.address.value] = nic
        self._receivers.clear()
        nic.ethernet = self

    def detach(self, nic: "Nic") -> None:
        """Disconnect a NIC (host crash/power-off); in-flight frames to it
        are lost."""
        self._nics.pop(nic.address.value, None)
        self._receivers.clear()
        nic.ethernet = None

    def _receivers_of(self, src: HostAddress) -> List["Nic"]:
        """The NICs a broadcast from ``src`` reaches, address-sorted;
        cached until the next attach/detach."""
        receivers = self._receivers.get(src.value)
        if receivers is None:
            receivers = self._receivers[src.value] = [
                self._nics[value] for value in sorted(self._nics)
                if value != src.value
            ]
        return receivers

    def nic_at(self, address: HostAddress) -> Optional["Nic"]:
        """The NIC currently attached at ``address``, if any."""
        return self._nics.get(address.value)

    @property
    def addresses(self) -> List[HostAddress]:
        """Addresses of all attached NICs (sorted for determinism)."""
        return [self._nics[value].address for value in sorted(self._nics)]

    # ----------------------------------------------------------- transmission

    def transmit(self, packet: Packet) -> None:
        """Queue a packet for transmission.

        The frame occupies the bus for its wire time starting when the bus
        is next free; receivers see it at the end of that interval.
        """
        size = packet.size_bytes
        wire_us = self._wire_us.get(size)
        if wire_us is None:
            wire_us = self._wire_us[size] = self.model.packet_wire_us(size)
        now = self.sim._now
        start = self._busy_until
        if start < now:
            start = now
        done = start + wire_us
        self._busy_until = done
        self.packets_sent += 1
        self.bytes_sent += size
        if self.metrics.active:
            tx = self._m_tx.get(packet.src)
            if tx is None:
                host = str(packet.src)
                tx = self._m_tx[packet.src] = (
                    self.metrics.counter("net.tx_packets", host),
                    self.metrics.counter("net.tx_bytes", host),
                )
            tx[0].inc()
            tx[1].inc(size)
            if start > now:
                # Contention: this frame queued behind the in-flight one.
                self._m_bus_wait.inc(start - now)
        trace = self.sim.trace
        if trace.active:
            trace.record(
                "net", "transmit", packet_id=packet.packet_id, kind=packet.kind,
                src=str(packet.src), dst=str(packet.dst), size=size,
            )
        self._sched(done - now, self._deliver, packet)

    def _deliver(self, packet: Packet) -> None:
        if packet.is_broadcast:
            receivers = self._receivers_of(packet.src)
            if self.faults is None:
                self._deliver_broadcast(packet, receivers)
            else:
                for nic in receivers:
                    self._deliver_one(nic, packet)
            return
        nic = self._nics.get(packet.dst.value)
        if nic is None:
            return
        if self.faults is not None or type(self.loss) is not NoLoss:
            self._deliver_one(nic, packet)
            return
        # The lossless unicast: _arrive, inline.
        rx = nic.rx
        if rx is None:
            nic.dropped_no_handler += 1
            if self.metrics.active:
                nic._m_rx_dropped.inc()
            return
        nic.received += 1
        if self.metrics.active:
            nic._m_rx.inc()
        self.schedule_rx(rx[1], rx[0], packet, (rx[2],))

    def _deliver_broadcast(self, packet: Packet, receivers: List["Nic"]) -> None:
        """One pass over a broadcast's receivers: loss draws and
        per-NIC accounting in delivery order, then one rx item per run
        of receivers sharing ``rx_frame`` and delay.  Deferring the
        scheduling to the end of a run is order-identical: loss draws
        and counters never touch ``sim._seq``."""
        sim = self.sim
        loss = self.loss
        drops = None if type(loss) is NoLoss else loss.drops
        counting = self.metrics.active
        frame = delay = None
        group: list = []
        for nic in receivers:
            if drops is not None and drops(sim, packet):
                self._count_drop(packet, nic, sim.trace)
                continue
            rx = nic.rx
            if rx is None:
                nic.dropped_no_handler += 1
                if counting:
                    nic._m_rx_dropped.inc()
                continue
            nic.received += 1
            if counting:
                nic._m_rx.inc()
            if rx[0] is not frame or rx[1] != delay:
                if group:
                    self.schedule_rx(delay, frame, packet, group)
                    group = []
                frame, delay = rx[0], rx[1]
            group.append(rx[2])
        if group:
            self.schedule_rx(delay, frame, packet, group)

    def _deliver_one(self, nic, packet: Packet) -> None:
        """Deliver a frame to one NIC through the loss model or the
        fault plane."""
        faults = self.faults
        if faults is not None:
            if self._deliver_with_faults(faults, packet, nic, self.sim.trace):
                return
        elif self.loss.drops(self.sim, packet):
            self._count_drop(packet, nic, self.sim.trace)
            return
        self._arrive(nic, packet)

    def _arrive(self, nic, packet: Packet) -> None:
        """A frame reaches one NIC: count it and schedule its
        processing, or drop it when no receiver is installed."""
        rx = nic.rx
        if rx is None:
            nic.dropped_no_handler += 1
            if self.metrics.active:
                nic._m_rx_dropped.inc()
            return
        nic.received += 1
        if self.metrics.active:
            nic._m_rx.inc()
        self.schedule_rx(rx[1], rx[0], packet, (rx[2],))

    def _count_drop(self, packet: Packet, nic, trace) -> None:
        self.packets_dropped += 1
        if self.metrics.active:
            drop = self._m_drops.get(nic.address)
            if drop is None:
                drop = self._m_drops[nic.address] = self.metrics.counter(
                    "net.drops", str(nic.address)
                )
            drop.inc()
        if trace.active:
            trace.record(
                "net", "drop", packet_id=packet.packet_id, dst=str(nic.address),
            )

    def _deliver_with_faults(self, faults, packet: Packet, nic, trace) -> bool:
        """Apply the fault plane's plan for one delivery.  Returns True
        when the caller must NOT deliver the frame inline (discarded or
        deferred); duplicate and delayed copies are scheduled here."""
        plan = faults.plan(self.sim, packet)
        if plan.dropped or plan.corrupted:
            self._count_drop(packet, nic, trace)
            if plan.corrupted and trace.active:
                trace.record(
                    "net", "corrupt", packet_id=packet.packet_id,
                    dst=str(nic.address),
                )
            return True
        for copy in range(plan.duplicates):
            self._sched(
                plan.delay_us + (copy + 1) * max(1, plan.dup_delay_us),
                self._arrive, nic, packet,
            )
            if trace.active:
                trace.record(
                    "net", "duplicate", packet_id=packet.packet_id,
                    dst=str(nic.address),
                )
        if plan.delay_us:
            if trace.active:
                trace.record(
                    "net", "reorder", packet_id=packet.packet_id,
                    dst=str(nic.address), delay_us=plan.delay_us,
                )
            self._sched(plan.delay_us, self._arrive, nic, packet)
            return True
        return False

    # ------------------------------------------- receive-processing batching

    def schedule_rx(self, delay_us: int, frame, packet: Packet, receivers) -> None:
        """Schedule ``frame(packet, receivers)`` after ``delay_us``,
        coalescing it into the open same-time batch when provably
        order-identical (see the module docstring)."""
        sim = self.sim
        time = sim._now + delay_us
        batch = self._rx_batch
        handlers = len(receivers)
        if batch is not None and batch[0] == time and batch[1] == sim._seq:
            batch[2].append((frame, packet, receivers))
            batch[3] += handlers
            self.rx_coalesced += handlers
            return
        batch = [time, 0, [(frame, packet, receivers)], handlers]
        self._rx_batch = batch
        sim.schedule(delay_us, self._run_rx_batch, batch)
        batch[1] = sim._seq
        self.rx_coalesced += handlers - 1

    def _run_rx_batch(self, batch: list) -> None:
        if self._rx_batch is batch:
            # This batch is firing; a later same-time schedule_rx must
            # open a fresh one rather than append to a fired batch.
            self._rx_batch = None
        # Each receiving handler counts as one processed event, so event
        # counts and budgets match one event per receiver.
        self.sim._event_count += batch[3] - 1
        for frame, packet, receivers in batch[2]:
            frame(packet, receivers)
