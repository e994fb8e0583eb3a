"""Process and process-group identifiers.

A V process identifier is a ``(logical-host-id, local-index)`` pair packed
into 32 bits (paper §2.1).  A process-*group* id has the same format,
distinguished by a flag bit in the local index (paper footnote 2: "a
process-group-id is identical in format to a process-id").

Two kinds of group matter here:

* **well-known local groups** -- the kernel server and program manager of
  the workstation a program is running on are addressed as
  ``(own-logical-host-id, well-known-index)``, so host-specific servers
  are reachable location-independently (paper §2, third bullet);
* **global groups** -- e.g. the group of every program manager in the
  cluster, used for host selection (paper §2.1).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Flag bit in the local index marking a group id rather than a process id.
GROUP_BIT = 0x8000

#: Well-known local indexes (combined with GROUP_BIT when addressed).
KERNEL_SERVER_INDEX = 0x7F01
PROGRAM_MANAGER_INDEX = 0x7F02

#: Reserved logical-host-id used by cluster-global groups.
GLOBAL_GROUP_LH = 0xFFFF

_MAX16 = 0xFFFF


@dataclass(frozen=True, order=True)
class Pid:
    """A 32-bit V process (or process-group) identifier."""

    logical_host_id: int
    local_index: int

    def __post_init__(self):
        if not 0 <= self.logical_host_id <= _MAX16:
            raise ValueError(f"logical_host_id {self.logical_host_id:#x} outside 16 bits")
        if not 0 <= self.local_index <= _MAX16:
            raise ValueError(f"local_index {self.local_index:#x} outside 16 bits")
        # Hashed once, not per lookup.  Ints hash unsalted, so this is a
        # pure function of the two fields in every process: a pickled
        # pid hashes alike in every parallel sweep worker.
        object.__setattr__(
            self, "_hash", hash((self.logical_host_id, self.local_index))
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_group(self) -> bool:
        """Whether this identifier names a process group."""
        return bool(self.local_index & GROUP_BIT)

    @property
    def is_global_group(self) -> bool:
        """Whether this is a cluster-global group id."""
        return self.is_group and self.logical_host_id == GLOBAL_GROUP_LH

    @property
    def index(self) -> int:
        """The local index with the group bit masked off."""
        return self.local_index & ~GROUP_BIT

    def as_int(self) -> int:
        """The packed 32-bit representation."""
        return (self.logical_host_id << 16) | self.local_index

    @classmethod
    def from_int(cls, value: int) -> "Pid":
        """Unpack a 32-bit identifier."""
        return cls((value >> 16) & _MAX16, value & _MAX16)

    def __repr__(self) -> str:
        tag = "gid" if self.is_group else "pid"
        return f"<{tag} {self.logical_host_id:04x}:{self.local_index:04x}>"


def local_kernel_server_group(logical_host_id: int) -> Pid:
    """The well-known local group addressing the kernel server of whatever
    workstation currently hosts ``logical_host_id`` (paper §2)."""
    return Pid(logical_host_id, KERNEL_SERVER_INDEX | GROUP_BIT)


def local_program_manager_group(logical_host_id: int) -> Pid:
    """The well-known local group addressing the program manager of the
    workstation currently hosting ``logical_host_id``."""
    return Pid(logical_host_id, PROGRAM_MANAGER_INDEX | GROUP_BIT)


def is_wellknown_local_group(pid: Pid) -> bool:
    """Whether ``pid`` addresses a per-host server via a local group."""
    return pid.is_group and pid.index in (KERNEL_SERVER_INDEX, PROGRAM_MANAGER_INDEX)


#: The cluster-global group every program manager belongs to; host
#: selection multicasts its queries here (paper §2.1).
PROGRAM_MANAGER_GROUP = Pid(GLOBAL_GROUP_LH, 0x0001 | GROUP_BIT)

#: Global group of all network file servers.
FILE_SERVER_GROUP = Pid(GLOBAL_GROUP_LH, 0x0002 | GROUP_BIT)

#: Global group of all display servers.
DISPLAY_SERVER_GROUP = Pid(GLOBAL_GROUP_LH, 0x0003 | GROUP_BIT)

#: Global group of all name/context servers.
NAME_SERVER_GROUP = Pid(GLOBAL_GROUP_LH, 0x0004 | GROUP_BIT)
