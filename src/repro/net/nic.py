"""Per-host network interface.

A NIC hands received frames to a *receiver* installed by the host's
kernel.  Frames arriving while no receiver is installed (host booting or
crashed) are counted and dropped, like a real interface with no driver.

The receiver contract (duck-typed; :class:`repro.ipc.transport.Transport`
is the production receiver, ``tests/net`` has small doubles):

* ``rx_delay_us`` -- the protocol-processing time charged between a
  frame's arrival and its processing;
* ``rx_frame(packet, receivers)`` -- a *static* function that processes
  one frame on every receiver in ``receivers`` (a sequence, in delivery
  order).  The segment calls it once per frame per run of receivers that
  share ``rx_frame`` and ``rx_delay_us``, so a broadcast reaching a
  hundred kernels costs one call, not a hundred;
* ``rx_folds`` (optional, default none) -- the frame kinds whose
  processing only buffers state that a later frame of the same stream
  from the same source reads.  The segment may process such a frame
  after its processing instant, as late as just before the next unicast
  it lands at this receiver (:mod:`repro.net.ethernet`, "Folded
  landings").

Whether a frame is received is decided by the NIC's state when the
frame arrives (the end of its wire time): with no receiver installed,
or detached, it is dropped.  A frame that arrived is processed, after
the delay of the receiver it arrived for, by that receiver, even if the
receiver has been removed since.  ``received`` and
``dropped_no_handler`` count each frame once: at arrival on lossy,
fault-plane and broadcast delivery, at processing for a lossless
unicast, which the segment lands in one event at its processing instant
or folds into a later one (:mod:`repro.net.ethernet`).  Such a landing
is kept in the NIC's in-flight FIFO until it is processed.  Installing
or removing the receiver, and attaching or detaching the NIC, hands the
landings whose frame has not yet arrived back to the segment, which
delivers each through its ordinary arrival step instead, so the
decision still falls at arrival.  The elided arrival counts as one modelled event either way.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.net.addresses import HostAddress
from repro.net.packet import Packet

#: The fold kinds of a receiver that declares none.
_NO_FOLDS = frozenset()


class Nic:
    """A network interface at a fixed host address."""

    def __init__(self, sim, address: HostAddress):
        self.sim = sim
        self.address = address
        self.ethernet = None  # set by Ethernet.attach
        #: ``(rx_frame, rx_delay_us, receiver, (receiver,), rx_folds)``
        #: of the installed receiver, read once per frame by the segment;
        #: None = no driver.
        self.rx: Optional[tuple] = None
        #: The segment's direct landings to this NIC that have not yet
        #: been processed, real and folded, in transmit order (see the
        #: module docstring).
        self._inflight: deque = deque()
        self.received = 0
        self.dropped_no_handler = 0
        m = sim.metrics
        self.metrics = m
        self._m_rx = m.counter("net.rx_packets", str(address))
        self._m_rx_dropped = m.counter("net.rx_dropped", str(address))

    def install_handler(self, receiver) -> None:
        """Install the frame receiver (the kernel's entry point; see the
        module docstring for the contract)."""
        self.rx = (receiver.rx_frame, receiver.rx_delay_us, receiver,
                   (receiver,), getattr(receiver, "rx_folds", _NO_FOLDS))
        self._revoke()

    def remove_handler(self) -> None:
        """Remove the receiver; subsequent arrivals are dropped."""
        self.rx = None
        self._revoke()

    def _revoke(self) -> None:
        """The receiver changed: frames landed for the old one that have
        not yet arrived must be decided again at their arrival."""
        if self._inflight and self.ethernet is not None:
            self.ethernet._revoke(self)

    def send(self, packet: Packet) -> None:
        """Put a packet on the wire (must be attached to a segment)."""
        if self.ethernet is None:
            # Host is detached (crashed); sends vanish, like a dead NIC.
            return
        self.ethernet.transmit(packet)

    def emit(
        self,
        dst: HostAddress,
        kind: str,
        payload,
        size_bytes: int = 64,
    ) -> None:
        """Build a frame from us to ``dst`` and transmit it.  The
        preferred way for protocol code to send."""
        ethernet = self.ethernet
        if ethernet is None:
            return
        ethernet.transmit(Packet(self.address, dst, kind, payload, size_bytes))
