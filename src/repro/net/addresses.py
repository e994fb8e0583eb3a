"""48-bit Ethernet host addresses.

The paper's kernels map 32-bit process ids to 48-bit physical Ethernet
addresses; we keep the same shape so the binding cache is faithful.
"""

from __future__ import annotations

from repro.errors import SimulationError

_MAX_ADDRESS = (1 << 48) - 1


class HostAddress:
    """An immutable 48-bit physical network address."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if not 0 <= value <= _MAX_ADDRESS:
            raise SimulationError(f"host address {value:#x} outside 48 bits")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("HostAddress is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, HostAddress) and other.value == self.value

    def __hash__(self) -> int:
        # The value alone: unsalted by PYTHONHASHSEED, so every process
        # (and every parallel sweep worker) hashes an address alike.
        return self.value

    def __repr__(self) -> str:
        octets = [(self.value >> shift) & 0xFF for shift in range(40, -8, -8)]
        return ":".join(f"{o:02x}" for o in octets)

    @property
    def is_broadcast(self) -> bool:
        """Whether this is the all-ones broadcast address."""
        return self.value == _MAX_ADDRESS


#: The all-ones broadcast address: packets sent here reach every NIC.
BROADCAST = HostAddress(_MAX_ADDRESS)

#: Base for sequentially allocated workstation addresses.
_VENDOR_PREFIX = 0x08_00_20_00_00_00  # Sun Microsystems OUI, fittingly


def workstation_address(index: int) -> HostAddress:
    """The conventional address of the index-th simulated workstation."""
    if index < 0 or index >= (1 << 24) - 1:
        raise SimulationError(f"workstation index {index} out of range")
    return HostAddress(_VENDOR_PREFIX + index + 1)
