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
  hundred kernels costs one call, not a hundred.
"""

from __future__ import annotations

from typing import Optional

from repro.net.addresses import HostAddress
from repro.net.packet import Packet


class Nic:
    """A network interface at a fixed host address."""

    def __init__(self, sim, address: HostAddress):
        self.sim = sim
        self.address = address
        self.ethernet = None  # set by Ethernet.attach
        #: ``(rx_frame, rx_delay_us, receiver)`` of the installed
        #: receiver, read once per frame by the segment; None = no driver.
        self.rx: Optional[tuple] = None
        self.received = 0
        self.dropped_no_handler = 0
        m = sim.metrics
        self.metrics = m
        self._m_rx = m.counter("net.rx_packets", str(address))
        self._m_rx_dropped = m.counter("net.rx_dropped", str(address))

    def install_handler(self, receiver) -> None:
        """Install the frame receiver (the kernel's entry point; see the
        module docstring for the contract)."""
        self.rx = (receiver.rx_frame, receiver.rx_delay_us, receiver)

    def remove_handler(self) -> None:
        """Remove the receiver; subsequent arrivals are dropped."""
        self.rx = None

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
        """Build a frame from us to ``dst`` -- recycled through the
        segment's packet pool when possible -- and transmit it.  The
        preferred way for protocol code to send."""
        ethernet = self.ethernet
        if ethernet is None:
            return
        ethernet.transmit(
            ethernet.pool.alloc(self.address, dst, kind, payload, size_bytes)
        )
