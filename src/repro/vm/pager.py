"""The demand pager.

A :class:`Pager` mediates between one address space and its backing
store at a network file server.  The store itself (page-index →
version) conceptually lives *at the file server*: it is global state,
so a migration hands the pager object to the destination rather than
copying anything -- precisely the paper's residual-dependency principle
(state at global servers "does not need to move", §6).

Performance.  Every scan here is mask arithmetic on the space's flat
(bitmap) page table: ``dirty_resident_pages`` intersects two ints,
``flush`` of the whole dirty set walks only set bits, and the CLOCK
eviction hand finds its victim with bit-twiddling instead of stepping
page objects one at a time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import HardwareModel
from repro.errors import KernelError
from repro.kernel.address_space import AddressSpace, Page, bit_indexes, iter_bits

try:  # Python >= 3.10
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - 3.9 fallback
    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


class Pager:
    """Demand paging state for one (possibly migrating) address space."""

    def __init__(
        self,
        model: HardwareModel,
        name: str = "pager",
        max_resident: Optional[int] = None,
    ):
        self.model = model
        self.name = name
        self.space: Optional[AddressSpace] = None
        #: The file-server copy: page index -> last flushed version.
        self.store: Dict[int, int] = {}
        #: Residency cap (None = unbounded).  When set, faulting beyond
        #: the cap evicts a victim chosen by the CLOCK algorithm over the
        #: pages' reference bits; evicting a dirty victim first flushes
        #: it (write-back), charged to the faulting process.
        self.max_resident = max_resident
        self._clock_hand = 0
        # Statistics (bench E10 and the thrash tests read these).
        self.faults = 0
        self.fault_us = 0
        self.flushed_pages = 0
        self.double_transfers = 0
        self.evictions = 0
        self.writeback_evictions = 0
        #: Optional repro.obs registry (see bind_metrics); a standalone
        #: Pager has no simulator reference, so binding is explicit.
        self._metrics = None

    # ------------------------------------------------------------ metrics

    def bind_metrics(self, registry, host: str) -> "Pager":
        """Mirror this pager's statistics into ``registry`` under
        ``host``.  The stats above stay authoritative; entry points sync
        deltas so internal helpers need no instrumentation of their own.
        The label is the host the space was attached on -- pager state is
        conceptually at the file server and the object migrates whole."""
        self._metrics = registry
        self._m_faults = registry.counter("vm.faults", host)
        self._m_fault_us = registry.counter("vm.fault_us", host)
        self._m_flushed = registry.counter("vm.flushed_pages", host)
        self._m_evictions = registry.counter("vm.evictions", host)
        self._mirrored = (self.faults, self.fault_us,
                          self.flushed_pages, self.evictions)
        return self

    def _sync_metrics(self) -> None:
        faults, fault_us, flushed, evictions = self._mirrored
        if self.faults > faults:
            self._m_faults.inc(self.faults - faults)
        if self.fault_us > fault_us:
            self._m_fault_us.inc(self.fault_us - fault_us)
        if self.flushed_pages > flushed:
            self._m_flushed.inc(self.flushed_pages - flushed)
        if self.evictions > evictions:
            self._m_evictions.inc(self.evictions - evictions)
        self._mirrored = (self.faults, self.fault_us,
                          self.flushed_pages, self.evictions)

    # ----------------------------------------------------------- attachment

    def attach(self, space: AddressSpace, resident: bool = True) -> "Pager":
        """Bind to a space.  ``resident=False`` marks every page paged-out
        (the state of a freshly migrated space: everything faults in from
        the file server on first touch)."""
        self.space = space
        space.pager = self
        space.resident_mask = space.full_mask if resident else 0
        return self

    # --------------------------------------------------------------- faults

    def service_faults(self, indexes: Iterable[int]) -> int:
        """Fault in any non-resident pages among ``indexes``; installs
        the stored versions and returns the total service time in
        microseconds (charged to the faulting process by the scheduler).

        With a residency cap, each fault beyond the cap first evicts a
        CLOCK victim; dirty victims are written back to the file server,
        adding their flush time to the fault."""
        space = self.space
        if space is None:
            raise KernelError("pager not attached to a space")
        cost = 0
        capped = self.max_resident is not None
        store = self.store
        versions = space.versions
        fault_us_per = self.model.page_fault_service_us
        for index in indexes:
            bit = 1 << index
            if space._resident & bit:
                continue
            if capped:
                while _popcount(space._resident) >= self.max_resident:
                    cost += self._evict_clock_victim(protect=index)
            stored = store.get(index)
            if stored is not None and stored > versions[index]:
                versions[index] = stored
                self.double_transfers += 1
            space._resident |= bit
            self.faults += 1
            cost += fault_us_per
        self.fault_us += cost
        mr = self._metrics
        if mr is not None and mr.active:
            self._sync_metrics()
        return cost

    def service_faults_span(self, offset: int, nbytes: int) -> int:
        """Fault in the non-resident pages covering a byte range.

        Uncapped, this touches only the *faulting* pages (one mask
        intersection finds them); a residency cap needs the index-order
        walk because each eviction can change residency mid-scan."""
        space = self.space
        if space is None:
            raise KernelError("pager not attached to a space")
        if nbytes <= 0:
            return 0
        if self.max_resident is None:
            missing = space.span_mask(offset, nbytes) & ~space._resident
            if not missing:
                return 0
            cost = 0
            store = self.store
            versions = space.versions
            for index in iter_bits(missing):
                stored = store.get(index)
                if stored is not None and stored > versions[index]:
                    versions[index] = stored
                    self.double_transfers += 1
                self.faults += 1
                cost += self.model.page_fault_service_us
            space._resident |= missing
            self.fault_us += cost
            mr = self._metrics
            if mr is not None and mr.active:
                self._sync_metrics()
            return cost
        return self.service_faults(self.indexes_for_touch(offset, nbytes))

    def resident_count(self) -> int:
        """Pages currently in physical memory."""
        return _popcount(self.space._resident)

    def _evict_clock_victim(self, protect: int) -> int:
        """Second-chance (CLOCK) eviction: sweep the reference bits,
        evict the first unreferenced resident page (never ``protect``).
        Returns the time cost (a dirty victim is flushed first).

        The sweep runs on the bitmasks, not page by page.  Its
        observable effects are (a) reference bits of the resident,
        non-protected pages it passes get cleared and (b) the first such
        page found unreferenced is evicted; both fall out of mask
        arithmetic on the region between the hand and the victim.
        """
        space = self.space
        n = space.n_pages
        protect_bit = 1 << protect
        candidates = space._resident & ~protect_bit
        if not candidates:
            raise KernelError(
                f"{self.name}: no evictable page (cap {self.max_resident} too small?)"
            )
        hand = self._clock_hand
        at_or_after = space.full_mask & ~((1 << hand) - 1)
        referenced = space._referenced
        unref = candidates & ~referenced

        ahead = unref & at_or_after
        if ahead:
            victim = (ahead & -ahead).bit_length() - 1
            passed = at_or_after & ((1 << victim) - 1)
        else:
            behind = unref & ~at_or_after
            if behind:
                # Wrapped once: swept [hand, n) then [0, victim).
                victim = (behind & -behind).bit_length() - 1
                passed = at_or_after | ((1 << victim) - 1)
            else:
                # Every candidate is referenced: the first lap clears
                # them all, the second lap evicts the first candidate at
                # or after the hand (wrapping).
                passed = space.full_mask
                ahead2 = candidates & at_or_after
                pick = ahead2 if ahead2 else candidates
                victim = (pick & -pick).bit_length() - 1
        space._referenced = referenced & ~(candidates & passed)

        victim_bit = 1 << victim
        cost = 0
        if space._dirty & victim_bit:
            self.store[victim] = space.versions[victim]
            space._dirty &= ~victim_bit
            self.flushed_pages += 1
            self.writeback_evictions += 1
            cost += self.model.page_flush_us_per_page
        space._resident &= ~victim_bit
        self.evictions += 1
        self._clock_hand = (victim + 1) % n
        return cost

    def indexes_for_touch(self, offset: int, nbytes: int) -> List[int]:
        """Page indexes covered by a byte-range touch."""
        if nbytes <= 0:
            return []
        from repro.config import PAGE_SIZE

        first = offset // PAGE_SIZE
        last = (offset + nbytes - 1) // PAGE_SIZE
        return list(range(first, last + 1))

    # -------------------------------------------------------------- flushing

    def dirty_resident_count(self) -> int:
        """How many pages would need flushing before the space could be
        dropped from this host (one popcount)."""
        space = self.space
        if space is None:
            return 0
        return _popcount(space._dirty & space._resident)

    def dirty_resident_pages(self) -> List[Page]:
        """Pages that would need flushing before the space could be
        dropped from this host."""
        space = self.space
        if space is None:
            return []
        views = space._views()
        return list(map(views.__getitem__,
                        bit_indexes(space._dirty & space._resident)))

    def flush(self, pages: Iterable[Page]) -> Tuple[int, int]:
        """Write the given pages to the file server; clears their dirty
        bits and returns ``(n_pages, flush_time_us)`` (the caller spends
        the time, e.g. with a Delay)."""
        count = 0
        for page in pages:
            self.store[page.index] = page.version
            page.dirty = False
            count += 1
        self.flushed_pages += count
        mr = self._metrics
        if mr is not None and mr.active:
            self._sync_metrics()
        return count, count * self.model.page_flush_us_per_page

    def flush_dirty_resident(self) -> Tuple[int, int]:
        """Flush every resident dirty page; O(dirty)."""
        space = self.space
        if space is None:
            return 0, 0
        mask = space._dirty & space._resident
        if not mask:
            return 0, 0
        versions = space.versions
        indexes = bit_indexes(mask)
        self.store.update(zip(indexes, map(versions.__getitem__, indexes)))
        space._dirty &= ~mask
        count = len(indexes)
        self.flushed_pages += count
        mr = self._metrics
        if mr is not None and mr.active:
            self._sync_metrics()
        return count, count * self.model.page_flush_us_per_page

    def flush_all_dirty(self) -> Tuple[int, int]:
        """Flush every resident dirty page."""
        return self.flush_dirty_resident()

    def evict_clean(self) -> int:
        """Drop resident pages whose stored copy is current (they can
        fault back in); returns how many were evicted."""
        space = self.space
        store = self.store
        versions = space.versions
        evicted_mask = 0
        for index in iter_bits(space._resident & ~space._dirty):
            if store.get(index) == versions[index]:
                evicted_mask |= 1 << index
        space._resident &= ~evicted_mask
        return _popcount(evicted_mask)


def attach_pager(
    kernel,
    space: AddressSpace,
    name: str = "",
    max_resident: Optional[int] = None,
) -> Pager:
    """Enable demand paging on a space hosted by ``kernel``; an optional
    ``max_resident`` cap turns on CLOCK eviction with write-back."""
    pager = Pager(kernel.model, name or f"pager:{space.name}",
                  max_resident=max_resident)
    pager.bind_metrics(kernel.sim.metrics, kernel.name)
    return pager.attach(space)
