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
* **Lossless unicast in one event, decided at arrival.**  On a segment
  with no fault plane and :class:`NoLoss`, a unicast whose NIC is
  attached with a receiver when it is sent is *landed*: ``transmit``
  schedules one event straight at ``done + rx_delay_us``
  (:meth:`Ethernet._land`), with no tx-done hop.  That event counts the
  frame (``received`` and the rx metric tick then, at processing time),
  adds the elided arrival to the event count -- the arrival is still one
  modelled event, so event counts and budgets equal the hop's -- and
  calls ``rx_frame``.  A landing or rx step for the instant of the open
  landing, with ``sim._seq`` unchanged, coalesces with it: the queued
  Timer is rewritten in place into an rx batch (same time, same heap
  key), so the proof above holds.  Whether the frame is received is
  still decided by the NIC's state at its arrival.  Each NIC keeps its
  landings in transmit order (``Nic._inflight``); a receiver
  install/remove or an attach/detach takes back those whose frame has
  not yet arrived (:meth:`Ethernet._revoke`) and sends each through the
  ``_deliver`` hop at its arrival instant, which decides as before.  A
  frame due at the very instant of the change has arrived iff its
  landing was scheduled before the event making the change
  (``Simulator._key``).  A frame that arrived is processed by the
  receiver it arrived for, as on the hop.  One order difference remains:
  a landing takes its heap key when the frame is sent, the hop's rx step
  took it at arrival, so an event scheduled in between for the same
  processing instant now runs after the frame's processing instead of
  before.  Lossy, fault-plane and broadcast frames, and unicasts to a
  NIC with no receiver when sent, take the tx-done ``_deliver`` hop, a
  unicast there through ``_deliver_one``/``_arrive``, so loss draws and
  duplicate/delay timers stay where they were.  The NIC table is keyed
  by the address's int value and wire times are cached per frame size.
* **Folded landings: no event at all.**  A receiver may declare kinds
  whose processing only buffers state that a later frame of the same
  stream reads (``rx_folds``, see :mod:`repro.net.nic`); the transport
  declares ``copy-data``, whose pages nothing reads before the stream's
  ``copy-end``.  A landing of such a kind is *folded*: ``transmit``
  queues ``(time, seq, packet, done, rx)`` on ``Nic._inflight`` --
  ``seq`` is ``sim._seq`` at the send, the heap-key position its landing
  would have had -- and schedules nothing.  Every copied page is then
  one scheduled event (the sender's pacing timer) and three modelled
  ones (the pacing timer, the arrival, the landing).  A folded landing
  is processed, in transmit order, at the first of:

  (a) the NIC's next real landing firing (:meth:`_fold_ahead`).  The
      bus is FIFO and one receiver charges one delay, so every folded
      landing queued ahead of it was due earlier; a stream that runs to
      the end closes with its ``copy-end``, a real landing;
  (b) a receiver install/remove or an attach/detach of the NIC
      (:meth:`_revoke`): a frame whose processing instant has passed is
      processed now by the receiver it arrived for, one that arrived but
      is not yet due gets its own landing event, one still on the wire
      takes the hop, as a real landing would.  ``Kernel.crash`` removes
      its receiver before it marks itself dead, so the frames processed
      before the crash still run their handler;
  (c) the stream stopping without its closing frame: the sender's pacing
      event that finds the stream stopped calls :meth:`settle`, and
      detaching the sender's NIC settles every folded landing it sent.
      Settling processes the due ones and gives the rest their own
      landing events.

  Processing a folded landing equals a fired landing: ``received`` and
  the rx metric tick, the event count rises by two (the landing and the
  elided arrival), the handler runs iff its kernel was alive at the
  frame's processing instant, and the simulator's invariant checker and
  profiler slot run once each (the profiler slot with no time: the
  enclosing event's clock already runs).  ``copyfrom-data`` does not
  fold: its handler reads the client record when it is processed.  Only
  the lossless unicast landing path folds; lossy, fault-plane and
  broadcast frames never reach it.
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
        #: The open landing or batch, the one a same-instant step may
        #: still join (see :meth:`schedule_rx` and :meth:`_land_at`):
        #: a landing ``[time, guard_seq, timer, packet, nic, done, batch,
        #: rx]`` or a batch ``[time, guard_seq, items, handlers, timer]``.
        self._rx_open: Optional[list] = None
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
        if nic._inflight:
            self._revoke(nic)

    def detach(self, nic: "Nic") -> None:
        """Disconnect a NIC (host crash/power-off); in-flight frames to it
        are lost.  Frames it sent are still delivered, but their streams
        may never send their closing frame now, so its folded landings
        get events of their own (rule (c))."""
        if nic._inflight:
            self._revoke(nic)
        self._nics.pop(nic.address.value, None)
        self._receivers.clear()
        nic.ethernet = None
        src = nic.address.value
        for other in self._nics.values():
            if other._inflight:
                self._settle(other, src)

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
        if (not packet.is_broadcast and self.faults is None
                and type(self.loss) is NoLoss):
            # Land the lossless unicast (see the module docstring).
            nic = self._nics.get(packet.dst.value)
            if nic is not None:
                rx = nic.rx
                if rx is not None:
                    if packet.kind in rx[4]:
                        # Fold it: no event of its own (module docstring).
                        nic._inflight.append(
                            (done + rx[1], self.sim._seq, packet, done, rx))
                        return
                    self._land_at(done, nic, rx, packet)
                    return
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
        if nic is not None:
            self._deliver_one(nic, packet)

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
        self.schedule_rx(rx[1], rx[0], packet, rx[3])

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

    # ------------------------------------------------- direct unicast landing

    def _land_at(self, done: int, nic, rx: tuple, packet: Packet) -> None:
        """Schedule a lossless unicast's processing by ``nic``'s receiver
        ``rx`` at ``done`` plus its delay, as one event with no arrival
        hop (see the module docstring)."""
        sim = self.sim
        time = done + rx[1]
        landing = [time, 0, None, packet, nic, done, None, rx]
        open_ = self._rx_open
        if open_ is not None and open_[1] == sim._seq and open_[0] == time:
            batch = self._batch_of(open_)
            landing[1] = batch[1]
            landing[6] = batch
            batch[2].append((self._land, landing, None))
            batch[3] += 1
            self.rx_coalesced += 1
        else:
            landing[2] = self._sched(time - sim._now, self._land, landing)
            landing[1] = sim._seq
            self._rx_open = landing
        nic._inflight.append(landing)

    def _land(self, landing: list, _receivers=None) -> None:
        """A direct landing fires: the frame arrived at ``done`` with the
        receiver it was landed for (any change since would have revoked
        it), so count it, count the elided arrival as one event and
        process it.  Also runs as an item of a batch; a revoked item
        there does nothing."""
        if self._rx_open is landing:
            self._rx_open = None
        packet = landing[3]
        if packet is None:
            return
        landing[2] = None
        nic = landing[4]
        inflight = nic._inflight
        if inflight[0] is landing:
            inflight.popleft()
        else:
            self._fold_ahead(nic, landing)
        nic.received += 1
        if self.metrics.active:
            nic._m_rx.inc()
        self.sim._event_count += 1
        rx = landing[7]
        rx[0](packet, rx[3])

    def _fold_ahead(self, nic, landing: list) -> None:
        """Take ``landing`` out of ``nic``'s queue and first process the
        folded landings ahead of it, in transmit order: they were due
        earlier (rule (a) of the module docstring).  A real landing
        ahead of it stays queued: a receiver reinstalled with a shorter
        delay lands a later frame before an earlier one."""
        inflight = nic._inflight
        folded = []
        kept = []
        entry = inflight.popleft()
        while entry is not landing:
            if type(entry) is tuple:
                folded.append(entry)
            else:
                kept.append(entry)
            entry = inflight.popleft()
        if kept:
            inflight.extendleft(reversed(kept))
        self._fold_in(nic, folded)

    def _fold_in(self, nic, entries: list) -> None:
        """Process folded landings ``(time, seq, packet, done, rx)`` now,
        in order, each exactly as its own landing event would have:
        count the frame, count the landing and the elided arrival as two
        events, run the receiver, then the simulator's per-event hooks.
        The profiler slot gets no time: the enclosing event's clock
        already runs."""
        sim = self.sim
        counting = self.metrics.active
        profiler = sim._profiler
        invariants = sim.invariants
        land = self._land
        for _, _, packet, _, rx in entries:
            nic.received += 1
            if counting:
                nic._m_rx.inc()
            sim._event_count += 2
            rx[0](packet, rx[3])
            if profiler is not None:
                profiler._account(land, 0.0)
            if invariants is not None:
                invariants.after_event(sim)

    def _is_due(self, entry: tuple) -> bool:
        """Whether a folded landing's processing instant has passed: it
        is earlier than now, or now with a landing event that would have
        fired before the current one (taken when the frame was sent,
        like ``Simulator._key`` order)."""
        sim = self.sim
        time = entry[0]
        return time < sim._now or (time == sim._now and entry[1] < sim._key)

    def _unfold(self, nic, entry: tuple) -> list:
        """Give a folded landing that is not yet due an event of its own
        at its processing instant.  It keeps the fold's send seq, which
        is what the arrival test of :meth:`_revoke` reads."""
        time, seq, packet, done, rx = entry
        landing = [time, seq, None, packet, nic, done, None, rx]
        landing[2] = self._sched(time - self.sim._now, self._land, landing)
        return landing

    def _revoke(self, nic) -> None:
        """``nic``'s receiver or attachment changed: take back its direct
        landings whose frame has not yet arrived and send each through
        the :meth:`_deliver` hop at its arrival instead, so reception is
        decided by the NIC's state then.  A frame due at this very
        instant has arrived iff its landing was scheduled before the
        event making the change (the heap key order its hop would have
        had).  Folded landings settle here (rule (b)): a due one is
        processed now, by the receiver it arrived for; one that arrived
        but is not yet due gets its own event; one still on the wire
        takes the hop."""
        inflight = nic._inflight
        sim = self.sim
        now = sim._now
        key = sim._key
        kept = []
        due = []
        revoked = []
        for entry in inflight:
            if type(entry) is tuple:
                done = entry[3]
                if self._is_due(entry):
                    due.append(entry)
                elif done < now or (done == now and entry[1] < key):
                    kept.append(self._unfold(nic, entry))
                else:
                    revoked.append((done, entry[2]))
            else:
                done = entry[5]
                if done < now or (done == now and entry[1] < key):
                    kept.append(entry)
                else:
                    revoked.append((done, entry[3]))
                    self._unland(entry)
        inflight.clear()
        inflight.extend(kept)
        self._fold_in(nic, due)
        for done, packet in revoked:
            self._sched(done - now, self._deliver, packet)

    def settle(self, src: HostAddress, dst: HostAddress) -> None:
        """A stream from ``src`` to ``dst`` stopped without its closing
        frame (rule (c)): the folded landings it left at ``dst``'s NIC
        will see no later landing of it, so give them their own."""
        nic = self._nics.get(dst.value)
        if nic is not None and nic._inflight:
            self._settle(nic, src.value)

    def _settle(self, nic, src: int) -> None:
        """Process the folded landings from address value ``src`` queued
        at ``nic`` that are due and give the others events of their own,
        keeping transmit order."""
        inflight = nic._inflight
        kept = []
        due = []
        for entry in inflight:
            if type(entry) is not tuple or entry[2].src.value != src:
                kept.append(entry)
            elif self._is_due(entry):
                due.append(entry)
            else:
                kept.append(self._unfold(nic, entry))
        inflight.clear()
        inflight.extend(kept)
        self._fold_in(nic, due)

    def _unland(self, landing: list) -> None:
        """Remove a revoked landing from its event: cancel the event if
        nothing else rides on it, and take back its share of
        ``rx_coalesced``."""
        landing[3] = None
        batch = landing[6]
        if batch is None:
            timer, open_ = landing[2], landing
            landing[2] = None
        else:
            handlers = batch[3]
            batch[3] = handlers - 1
            if handlers > 1:
                self.rx_coalesced -= 1
                return
            timer, open_ = batch[4], batch
            batch[4] = None
        timer.cancel()
        if self._rx_open is open_:
            self._rx_open = None

    # ------------------------------------------- receive-processing batching

    def schedule_rx(self, delay_us: int, frame, packet: Packet, receivers) -> None:
        """Schedule ``frame(packet, receivers)`` after ``delay_us``,
        coalescing it into the open same-time landing or batch when
        provably order-identical (see the module docstring)."""
        sim = self.sim
        time = sim._now + delay_us
        handlers = len(receivers)
        open_ = self._rx_open
        if open_ is not None and open_[0] == time and open_[1] == sim._seq:
            batch = self._batch_of(open_)
            batch[2].append((frame, packet, receivers))
            batch[3] += handlers
            self.rx_coalesced += handlers
            return
        batch = [time, 0, [(frame, packet, receivers)], handlers, None]
        self._rx_open = batch
        batch[4] = sim.schedule(delay_us, self._run_rx_batch, batch)
        batch[1] = sim._seq
        self.rx_coalesced += handlers - 1

    def _batch_of(self, open_: list) -> list:
        """The open batch; an open single landing becomes one by
        rewriting its queued event in place (same time, same heap key)."""
        if len(open_) == 5:  # a batch; a landing has eight fields
            return open_
        timer = open_[2]
        batch = [open_[0], open_[1], [(self._land, open_, None)], 1, timer]
        open_[2] = None
        open_[6] = batch
        timer.fn = self._run_rx_batch
        timer.args = (batch,)
        self._rx_open = batch
        return batch

    def _run_rx_batch(self, batch: list) -> None:
        if self._rx_open is batch:
            # This batch is firing; a later same-time step must open a
            # fresh one rather than join a fired batch.
            self._rx_open = None
        batch[4] = None
        # Each receiving handler counts as one processed event, so event
        # counts and budgets match one event per receiver.
        self.sim._event_count += batch[3] - 1
        for frame, packet, receivers in batch[2]:
            frame(packet, receivers)
