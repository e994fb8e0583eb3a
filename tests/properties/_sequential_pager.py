"""The one-victim-per-fault CLOCK pager, kept verbatim.

This is the capped fault loop :class:`repro.vm.Pager` ran before it
took all of one touch's victims from a single sweep: every missing page
counts the resident set, and each fault beyond the cap calls
``_evict_clock_victim`` once per victim.  It is a test oracle only:
``test_pager_sweep_equivalence.py`` drives it and the sweep through the
same states and touch lists and asserts they leave identical state.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import KernelError
from repro.vm import Pager
from repro.vm.pager import _popcount


class SequentialPager(Pager):
    """:class:`Pager` with the per-victim eviction loop."""

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
