"""Calibration constants for the simulated hardware and V kernel.

The paper's measurements were taken on SUN workstations (10 MHz 68010,
2 MB RAM) on a 10 Mbit Ethernet.  All times in this package are integer
**microseconds of simulated time**; this module collects every calibrated
cost in one :class:`HardwareModel` so experiments can vary them.

The defaults are chosen so that the simulation reproduces the paper's
headline measurements (section 4.1):

====================================  =======================
measurement                           paper value
====================================  =======================
select remote host (first response)   23 ms
set up + destroy execution env        40 ms
program load                          330 ms / 100 KB
kernel+program-manager state copy     14 ms + 9 ms per object
inter-host address-space copy         3 s / MB
group-id indirection per kernel op    100 us
frozen-check per kernel op            13 us
====================================  =======================
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Number of bytes in one simulated page.  The SUN-2 MMU used 2 KB pages.
PAGE_SIZE = 2048

#: Microseconds per second, for readability in derived constants.
US_PER_SEC = 1_000_000

#: Microseconds per millisecond.
US_PER_MS = 1_000


@dataclass(frozen=True)
class HardwareModel:
    """Every calibrated cost of the simulated cluster, in microseconds
    (or bytes where noted).

    Instances are immutable; use :meth:`scaled` or :func:`dataclasses.replace`
    to derive variants for sensitivity experiments.
    """

    # ------------------------------------------------------------------ CPU
    #: CPU speed in (simulated) instructions per microsecond.  10 MHz 68010
    #: delivered roughly 1 MIPS, i.e. ~1 instruction/us.
    cpu_mips: float = 1.0

    #: Scheduler time slice for round-robin among equal-priority processes.
    time_slice_us: int = 10_000

    #: Cost of a context switch between processes on one workstation.
    context_switch_us: int = 150

    # ------------------------------------------------------------------ IPC
    #: Kernel time for a local Send-Receive-Reply round trip (V's measured
    #: local message exchange was under a millisecond on this hardware).
    local_rpc_us: int = 480

    #: Added network cost of a remote Send-Receive-Reply (packet handling
    #: both ends plus wire time for two small packets).
    remote_rpc_extra_us: int = 2_040

    #: Extra kernel time when a kernel-server or program-manager operation
    #: is addressed through a well-known local group id (paper: ~100 us).
    group_id_lookup_us: int = 100

    #: Extra kernel time for the "is this logical host frozen?" test added
    #: to several kernel operations (paper: 13 us).
    frozen_check_us: int = 13

    #: Retransmission interval for unacknowledged Sends.
    retransmit_interval_us: int = 200_000

    #: Number of retransmissions before a Send is declared failed.
    max_retransmissions: int = 5

    #: Multiplier applied to the retransmission interval after each
    #: unanswered attempt (capped exponential backoff).  1.0 -- the
    #: paper's fixed-interval behavior -- is the default; fault-injection
    #: campaigns raise it so a storm of retries does not keep a lossy
    #: segment saturated.
    retransmit_backoff: float = 1.0

    #: Ceiling on the backed-off retransmission interval.
    retransmit_backoff_cap_us: int = 1_600_000

    #: Broadcast the new logical-host binding when a migrated copy is
    #: unfrozen (the eager-rebind optimization of paper §3.1.4).  With
    #: False, every stale reference rebinds lazily through NAK-or-timeout
    #: plus a broadcast query.
    eager_rebind: bool = True

    #: How long a replier retains a reply message for possible
    #: retransmission; reset by each retransmitted Send that *arrives*
    #: (section 3.1.3).  Must exceed the sender's whole retry horizon --
    #: (2 x max_retransmissions) x retransmit_interval, the rebind
    #: fallback included -- else a sender whose refreshes were all lost
    #: can retransmit just after expiry and be delivered twice.
    reply_retention_us: int = 3_000_000

    # -------------------------------------------------------------- network
    #: Raw Ethernet bandwidth, bits per microsecond (10 Mbit/s = 10).
    ethernet_bits_per_us: float = 10.0

    #: Wire propagation plus interface latency per packet.
    packet_latency_us: int = 100

    #: Maximum data bytes carried by one packet (V used ~1 KB packets and
    #: transferred 32 KB "runs" as packet blasts).
    packet_data_bytes: int = 1024

    #: Per-packet kernel protocol-processing cost on *each* end.  Tuned so
    #: that bulk interhost copy achieves the paper's 3 s/MB.
    packet_process_us: int = 985

    #: Probability that any individual packet is lost.  0 by default;
    #: fault-injection tests raise it.
    packet_loss_rate: float = 0.0

    #: Local (same-workstation) memcpy cost for CopyTo/CopyFrom, per page.
    #: The 68010 moved memory at roughly 2 MB/s.
    local_copy_us_per_page: int = 1_000

    # ----------------------------------------------------- program execution
    #: Time to select a remote host: multicast query handling on the
    #: responder side.  Calibrated so first response arrives ~23 ms after
    #: the query is issued.
    host_query_handling_us: int = 20_000

    #: Program-manager time to create a new execution environment
    #: (address space + initial process + descriptors).
    env_setup_us: int = 25_000

    #: Program-manager time to destroy an execution environment.
    env_destroy_us: int = 15_000

    #: File-server read rate for program loading: the paper reports 330 ms
    #: per 100 KB of program, i.e. 3.3 us per byte end to end.  The network
    #: transfer supplies ~2.93 us/byte; this per-byte server overhead
    #: supplies the rest.
    file_server_read_us_per_byte: float = 0.35

    # -------------------------------------------------------------- migration
    #: Fixed cost of copying a logical host's kernel-server and
    #: program-manager state (paper: 14 ms).
    kernel_state_copy_base_us: int = 14_000

    #: Additional cost per process and per address space in the logical
    #: host (paper: 9 ms each).
    kernel_state_copy_per_object_us: int = 9_000

    #: Pre-copy stops when the dirty residual is at most this many bytes...
    precopy_residual_threshold_bytes: int = 32 * 1024

    #: ...or when one round shrank the dirty set by less than this factor...
    precopy_min_reduction: float = 0.5

    #: ...or after this many rounds, whichever comes first.
    precopy_max_rounds: int = 5

    #: Replace the static stop rule with the dirty-rate projection of
    #: :class:`repro.migration.precopy.AdaptivePrecopy`: keep copying
    #: "until no significant reduction in the number of modified pages
    #: is achieved" (§3.1.2), in pre-copy and VM-flush migrations alike.
    precopy_adaptive: bool = False

    # ------------------------------------------------------------------- VM
    #: Cost to service a page fault from the file server (request + one
    #: page over the wire + server time).
    page_fault_service_us: int = 8_000

    #: Rate at which a pager can flush dirty pages to the file server;
    #: same wire as CopyTo but with file-server write overhead per page.
    page_flush_us_per_page: int = 7_000

    # --------------------------------------------------------------- memory
    #: Physical memory per workstation (2 MB on the paper's SUNs).
    workstation_memory_bytes: int = 2 * 1024 * 1024

    def packet_wire_us(self, data_bytes: int) -> int:
        """Wire time for one packet carrying ``data_bytes`` of payload.

        A simulated packet has ~64 bytes of header/framing in addition to
        its payload.
        """
        bits = (data_bytes + 64) * 8
        return int(bits / self.ethernet_bits_per_us) + self.packet_latency_us

    def packet_cost_us(self, data_bytes: int) -> int:
        """End-to-end cost of one data packet: sender processing, wire
        time, and receiver processing."""
        return 2 * self.packet_process_us + self.packet_wire_us(data_bytes)

    def bulk_copy_us(self, nbytes: int) -> int:
        """Time to move ``nbytes`` between two hosts with back-to-back
        data packets (the CopyTo path).  Roughly 3 s/MB by default."""
        if nbytes <= 0:
            return 0
        full, rem = divmod(nbytes, self.packet_data_bytes)
        total = full * self.packet_cost_us(self.packet_data_bytes)
        if rem:
            total += self.packet_cost_us(rem)
        return total

    def program_load_us(self, nbytes: int) -> int:
        """Time to load a program image of ``nbytes`` from a file server
        (network transfer plus server read overhead)."""
        return self.bulk_copy_us(nbytes) + int(nbytes * self.file_server_read_us_per_byte)

    def kernel_state_copy_us(self, n_processes: int, n_spaces: int) -> int:
        """Time to copy kernel-server + program-manager state for a
        logical host with the given population (paper: 14 ms + 9 ms per
        process and address space)."""
        return self.kernel_state_copy_base_us + self.kernel_state_copy_per_object_us * (
            n_processes + n_spaces
        )

    def with_loss(self, rate: float) -> "HardwareModel":
        """A copy of this model with the given packet-loss rate."""
        return replace(self, packet_loss_rate=rate)

    def copy_plane_modes(self) -> dict:
        """Which copy-plane modes this model runs (RunReport toggles)."""
        return {"adaptive_precopy": self.precopy_adaptive}


#: The default model, calibrated to the paper's SUN + 10 Mb Ethernet numbers.
DEFAULT_MODEL = HardwareModel()
