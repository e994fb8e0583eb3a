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

A :class:`Pid` is an immutable tuple subclass, so the pid-keyed tables
on every message path (servers, clients, pending replies, inbound copy
streams) hash and compare pids in C.
"""

from __future__ import annotations

from operator import itemgetter

#: Flag bit in the local index marking a group id rather than a process id.
GROUP_BIT = 0x8000

#: Well-known local indexes (combined with GROUP_BIT when addressed).
KERNEL_SERVER_INDEX = 0x7F01
PROGRAM_MANAGER_INDEX = 0x7F02

#: Reserved logical-host-id used by cluster-global groups.
GLOBAL_GROUP_LH = 0xFFFF

_MAX16 = 0xFFFF


class Pid(tuple):
    """A 32-bit V process (or process-group) identifier.

    An immutable ``(logical_host_id, local_index)`` tuple, so hashing,
    equality and ordering run in C: a pid hashes as the plain tuple
    does (ints hash unsalted, so a pickled pid hashes alike in every
    parallel sweep worker) and orders field by field.
    """

    __slots__ = ()

    def __new__(cls, logical_host_id: int, local_index: int) -> "Pid":
        if not 0 <= logical_host_id <= _MAX16:
            raise ValueError(f"logical_host_id {logical_host_id:#x} outside 16 bits")
        if not 0 <= local_index <= _MAX16:
            raise ValueError(f"local_index {local_index:#x} outside 16 bits")
        return tuple.__new__(cls, (logical_host_id, local_index))

    def __getnewargs__(self):
        return tuple(self)

    logical_host_id = property(itemgetter(0), doc="The logical-host id.")
    local_index = property(itemgetter(1), doc="The local index, group bit included.")

    @property
    def is_group(self) -> bool:
        """Whether this identifier names a process group."""
        return bool(self[1] & GROUP_BIT)

    @property
    def is_global_group(self) -> bool:
        """Whether this is a cluster-global group id."""
        return bool(self[1] & GROUP_BIT) and self[0] == GLOBAL_GROUP_LH

    @property
    def index(self) -> int:
        """The local index with the group bit masked off."""
        return self[1] & ~GROUP_BIT

    def as_int(self) -> int:
        """The packed 32-bit representation."""
        return (self[0] << 16) | self[1]

    @classmethod
    def from_int(cls, value: int) -> "Pid":
        """Unpack a 32-bit identifier."""
        return cls((value >> 16) & _MAX16, value & _MAX16)

    def __repr__(self) -> str:
        lhid, index = self
        tag = "gid" if index & GROUP_BIT else "pid"
        return f"<{tag} {lhid:04x}:{index:04x}>"


def local_kernel_server_group(logical_host_id: int) -> Pid:
    """The well-known local group addressing the kernel server of whatever
    workstation currently hosts ``logical_host_id`` (paper §2)."""
    return Pid(logical_host_id, KERNEL_SERVER_INDEX | GROUP_BIT)


def local_program_manager_group(logical_host_id: int) -> Pid:
    """The well-known local group addressing the program manager of the
    workstation currently hosting ``logical_host_id``."""
    return Pid(logical_host_id, PROGRAM_MANAGER_INDEX | GROUP_BIT)


#: Local indexes of the well-known local groups, group bit included.
_WELLKNOWN_LOCAL_GROUPS = frozenset(
    (KERNEL_SERVER_INDEX | GROUP_BIT, PROGRAM_MANAGER_INDEX | GROUP_BIT)
)


def is_wellknown_local_group(pid: Pid) -> bool:
    """Whether ``pid`` addresses a per-host server via a local group."""
    return pid.local_index in _WELLKNOWN_LOCAL_GROUPS


#: The cluster-global group every program manager belongs to; host
#: selection multicasts its queries here (paper §2.1).
PROGRAM_MANAGER_GROUP = Pid(GLOBAL_GROUP_LH, 0x0001 | GROUP_BIT)

#: Global group of all network file servers.
FILE_SERVER_GROUP = Pid(GLOBAL_GROUP_LH, 0x0002 | GROUP_BIT)

#: Global group of all display servers.
DISPLAY_SERVER_GROUP = Pid(GLOBAL_GROUP_LH, 0x0003 | GROUP_BIT)

#: Global group of all name/context servers.
NAME_SERVER_GROUP = Pid(GLOBAL_GROUP_LH, 0x0004 | GROUP_BIT)
