"""The logical-host binding cache.

Each kernel caches mappings from logical-host-id to physical (Ethernet)
host address; this cache is how 32-bit pids are routed to 48-bit network
addresses (paper §4.1: the mechanism "predates the migration facility").
Entries are updated from incoming packets and from query responses, and
invalidated when a destination stops responding; migration works because
rebinding the logical host updates the caches lazily via exactly these
paths (§3.1.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.addresses import HostAddress


class BindingCache:
    """lhid → physical host address, with hit/miss accounting."""

    def __init__(self, sim):
        self._sim = sim
        self._entries: Dict[int, Tuple[HostAddress, int]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: Rebinding kill switch (test hook, paired with
        #: ``Transport.rebind_enabled``): with False, :meth:`learn` will
        #: insert missing bindings but never *move* an existing one, so
        #: a stale entry stays stale -- the broken-cache configuration
        #: the no-residual-dependency invariant must catch.
        self.refresh_enabled = True
        self._metrics = None
        self._m_hits = None
        self._m_misses = None

    def bind_metrics(self, registry, host: str) -> None:
        """Register the cache's obs instruments under the owning
        workstation's name (called once by the kernel)."""
        self._metrics = registry
        self._m_hits = registry.counter("ipc.binding_hits", host)
        self._m_misses = registry.counter("ipc.binding_misses", host)

    def lookup(self, lhid: int) -> Optional[HostAddress]:
        """Cached address for a logical host, or None."""
        entry = self._entries.get(lhid)
        m = self._metrics
        if entry is None:
            self.misses += 1
            if m is not None and m.active:
                self._m_misses.inc()
            return None
        self.hits += 1
        if m is not None and m.active:
            self._m_hits.inc()
        return entry[0]

    def learn(self, lhid: int, address: HostAddress) -> None:
        """Record (or refresh) a binding, e.g. from an incoming packet's
        source fields or a query response."""
        entry = self._entries.get(lhid)
        if (entry is not None and entry[0] != address
                and not self.refresh_enabled):
            return  # broken-rebinding mode: the stale entry wins
        self._entries[lhid] = (address, self._sim.now)

    def invalidate(self, lhid: int) -> None:
        """Drop a binding that stopped responding."""
        if lhid in self._entries:
            del self._entries[lhid]
            self.invalidations += 1

    def invalidate_address(self, address: HostAddress) -> int:
        """Drop every binding that points at one physical host.  Used by
        the cluster supervisor when it declares a machine crashed: any
        logical host last seen there must re-resolve (and will land on
        its new home, or time out if it died with the machine).  Returns
        the number of bindings scrubbed."""
        stale = [
            lhid
            for lhid, (addr, _) in self._entries.items()
            if addr == address
        ]
        for lhid in stale:
            del self._entries[lhid]
        self.invalidations += len(stale)
        return len(stale)

    def entry_age(self, lhid: int) -> Optional[int]:
        """Microseconds since the binding was learned, or None."""
        entry = self._entries.get(lhid)
        if entry is None:
            return None
        return self._sim.now - entry[1]

    def known_lhids(self) -> List[int]:
        """All cached logical-host ids (sorted, for determinism)."""
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, lhid: int) -> bool:
        return lhid in self._entries
