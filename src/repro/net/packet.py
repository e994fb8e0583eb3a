"""Network packets.

A packet carries an opaque ``payload`` (constructed by the IPC transport)
plus the addressing and size information the bus needs.  ``size_bytes``
counts payload data only; framing overhead is added by the wire-time
model in :class:`repro.config.HardwareModel`.  A frame may carry more
than one logical page: under ``COPY_PLANE.burst_pacing`` the copy engine
emits ``copy-burst`` / ``copyfrom-burst`` frames whose payload is a list
of page snapshots and whose ``size_bytes`` is the whole burst, modelling
V's multi-packet blasts as one scheduled unit.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.net.addresses import HostAddress

_packet_ids = itertools.count(1)


class Packet:
    """One frame on the simulated Ethernet."""

    __slots__ = ("src", "dst", "kind", "payload", "size_bytes", "packet_id",
                 "is_broadcast")

    def __init__(
        self,
        src: HostAddress,
        dst: HostAddress,
        kind: str,
        payload: Any,
        size_bytes: int = 64,
    ):
        if size_bytes < 0:
            raise ValueError(f"negative packet size {size_bytes}")
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size_bytes = size_bytes
        self.packet_id = next(_packet_ids)
        self.is_broadcast = dst.is_broadcast

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.packet_id} {self.kind} {self.src}->{self.dst} "
            f"{self.size_bytes}B>"
        )

