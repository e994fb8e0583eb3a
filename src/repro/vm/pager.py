"""The demand pager.

A :class:`Pager` mediates between one address space and its backing
store at a network file server.  The store itself (page-index →
version) conceptually lives *at the file server*: it is global state,
so a migration hands the pager object to the destination rather than
copying anything -- precisely the paper's residual-dependency principle
(state at global servers "does not need to move", §6).

Performance.  Every scan here is mask arithmetic on the space's flat
(bitmap) page table: ``flush_dirty_resident`` walks only the set bits
of one intersection, and a capped touch takes all of its CLOCK victims
from one sweep of the hand -- each victim is the lowest set bit of the
"unreferenced and resident at or after the hand" mask, and the
reference bits the hand passed are cleared once per lap segment rather
than once per victim.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import PAGE_SIZE, HardwareModel
from repro.errors import KernelError
from repro.kernel.address_space import AddressSpace, bit_indexes, iter_bits

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
        adding their flush time to the fault.  All of one call's victims
        come from one continuous sweep of the hand (see
        :meth:`_service_capped`)."""
        space = self.space
        if space is None:
            raise KernelError("pager not attached to a space")
        if self.max_resident is not None:
            cost = self._service_capped(space, indexes)
        else:
            cost = 0
            store = self.store
            versions = space.versions
            fault_us_per = self.model.page_fault_service_us
            for index in indexes:
                bit = 1 << index
                if space._resident & bit:
                    continue
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

    def _service_capped(self, space: AddressSpace, indexes: Iterable[int]) -> int:
        """The capped fault loop: one CLOCK sweep serves every eviction
        of the call.

        Second-chance CLOCK steps the hand page by page: a resident,
        referenced page has its reference bit cleared and is passed; the
        first resident, unreferenced page is the victim and the hand
        stops just after it.  Within one call the hand only moves
        forward until it wraps, so the sweep keeps, as masks:

        * ``ahead`` -- resident, unreferenced pages at or after the hand:
          the next victim is always its lowest set bit;
        * ``late`` -- pages faulted in behind the hand in this segment of
          the sweep (they were not resident when the hand passed them, so
          their reference bits must survive);

        and clears the reference bits the hand passed once per segment
        (``[seg_start, hand)`` minus ``late``): at a wrap and at the end
        of the call.  A wrap rebuilds ``ahead`` over the whole space,
        which covers both the "victim behind the hand" case and the
        all-referenced second lap.

        Residency is still tested page by page in touch order: an
        earlier fault of the same call may evict a page that appears
        later in ``indexes``, and that page faults in again.
        ``tests/properties/_sequential_pager.py`` keeps the
        per-victim loop this replaces, as the oracle."""
        cap = self.max_resident
        n = space._n_pages
        full = space._full_mask
        store = self.store
        versions = space.versions
        fault_us_per = self.model.page_fault_service_us
        flush_us_per = self.model.page_flush_us_per_page
        resident = space._resident
        referenced = space._referenced
        dirty = space._dirty
        count = _popcount(resident)
        hand = seg_start = self._clock_hand
        ahead = ((resident & ~referenced) >> hand) << hand
        late = 0
        cost = faults = evictions = writebacks = 0
        try:
            for index in indexes:
                bit = 1 << index
                if resident & bit:
                    continue
                while count >= cap:
                    if not ahead:
                        # Wrap: the hand passed [seg_start, n) -- every
                        # resident page there that was not faulted in
                        # behind the hand loses its reference bit.
                        if not resident:
                            raise KernelError(
                                f"{self.name}: no evictable page "
                                f"(cap {cap} too small?)"
                            )
                        referenced &= ~(resident & ~late
                                        & (full ^ ((1 << seg_start) - 1)))
                        hand = seg_start = 0
                        late = 0
                        ahead = resident & ~referenced
                        continue
                    low = ahead & -ahead
                    ahead ^= low
                    resident ^= low
                    victim = low.bit_length() - 1
                    if dirty & low:
                        store[victim] = versions[victim]
                        dirty ^= low
                        writebacks += 1
                        cost += flush_us_per
                    evictions += 1
                    count -= 1
                    hand = victim + 1
                stored = store.get(index)
                if stored is not None and stored > versions[index]:
                    versions[index] = stored
                    self.double_transfers += 1
                resident |= bit
                count += 1
                faults += 1
                cost += fault_us_per
                if index >= hand:
                    if not referenced & bit:
                        ahead |= bit
                else:
                    late |= bit
        finally:
            space._resident = resident
            space._referenced = referenced & ~(
                resident & ~late & (((1 << hand) - 1) ^ ((1 << seg_start) - 1))
            )
            space._dirty = dirty
            self._clock_hand = hand % n
            self.faults += faults
            self.evictions += evictions
            self.flushed_pages += writebacks
            self.writeback_evictions += writebacks
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
        if self.max_resident is not None:
            first = offset // PAGE_SIZE
            last = (offset + nbytes - 1) // PAGE_SIZE
            return self.service_faults(range(first, last + 1))
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

    def resident_count(self) -> int:
        """Pages currently in physical memory."""
        return _popcount(self.space._resident)

    def indexes_for_touch(self, offset: int, nbytes: int) -> List[int]:
        """Page indexes covered by a byte-range touch."""
        if nbytes <= 0:
            return []
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
