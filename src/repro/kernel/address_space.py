"""Address spaces with flat, bitmap-based page tables.

Migration correctness and pre-copy performance both hinge on pages:
the kernel detects modified pages with dirty bits (paper footnote 4) and
the pre-copy loop repeatedly copies just-dirtied pages.  We do not store
actual byte contents; instead every page carries a monotonically
increasing **version** bumped on each write, which lets tests assert that
a migrated copy is complete (destination versions equal source versions)
without simulating real memory.

Representation.  The page table is *flat*: one ``array('Q')`` of
versions plus three integer bitmasks (dirty / referenced / resident),
one bit per page.  Arbitrary-precision ints make the masks single
objects regardless of space size, so the hot pre-copy operations cost
what the *work* costs, not what the *state* costs:

* ``dirty_bytes`` / ``dirty_page_count`` are one popcount (O(words));
* ``collect_dirty`` / ``dirty_pages`` walk only the set bits (O(dirty));
* ``touch`` over a byte range is one mask OR plus per-touched-page
  version bumps (O(pages touched));
* ``identical_to`` compares two C arrays.

The classic per-page object API survives as :class:`Page`, now a
zero-storage *view* onto the flat table: ``space.pages[i]`` materializes
a handle whose attribute reads and writes go straight to the arrays, so
all seed-era call sites (and tests) keep working unchanged.
"""

from __future__ import annotations

import itertools
from array import array
from itertools import accumulate, count
from operator import add
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.config import PAGE_SIZE
from repro.errors import KernelError

_space_ids = itertools.count(1)

try:  # Python >= 3.10
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - 3.9 fallback
    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


def bit_indexes(mask: int) -> List[int]:
    """Indexes of the set bits of ``mask``, ascending, as a list.

    Runs almost entirely in C: one base-2 conversion, one ``str.split``
    on the zero-runs, then the positions fall out of a prefix sum
    (``accumulate`` of the gap lengths plus the running bit count).
    Far cheaper than the classic ``mask &= mask - 1`` loop, which
    reallocates the full-width integer once per set bit."""
    if not mask:
        return []
    gaps = bin(mask)[:1:-1].split("1")  # LSB-first zero-runs
    del gaps[-1]
    return list(map(add, accumulate(map(len, gaps)), count()))


def iter_bits(mask: int) -> Iterator[int]:
    """Indexes of the set bits of ``mask``, ascending (iterator form of
    :func:`bit_indexes`)."""
    return iter(bit_indexes(mask))


class Page:
    """A view of one page of a simulated address space.

    Stores nothing but ``(space, index)``; every attribute access reads
    or writes the space's flat version array and bitmasks, so views can
    be created freely (two views of the same page always agree).
    """

    __slots__ = ("space", "index")

    def __init__(self, space: "AddressSpace", index: int):
        self.space = space
        self.index = index

    # Bumped on every write; copied along with the page.
    @property
    def version(self) -> int:
        return self.space.versions[self.index]

    @version.setter
    def version(self, value: int) -> None:
        self.space.versions[self.index] = value

    # Modified since the dirty bits were last collected.
    @property
    def dirty(self) -> bool:
        return bool(self.space._dirty & (1 << self.index))

    @dirty.setter
    def dirty(self, value: bool) -> None:
        if value:
            self.space._dirty |= 1 << self.index
        else:
            self.space._dirty &= ~(1 << self.index)

    # Present in physical memory (False = paged out, VM mode only).
    @property
    def resident(self) -> bool:
        return bool(self.space._resident & (1 << self.index))

    @resident.setter
    def resident(self, value: bool) -> None:
        if value:
            self.space._resident |= 1 << self.index
        else:
            self.space._resident &= ~(1 << self.index)

    # Touched since the reference bits were last cleared (VM clock).
    @property
    def referenced(self) -> bool:
        return bool(self.space._referenced & (1 << self.index))

    @referenced.setter
    def referenced(self, value: bool) -> None:
        if value:
            self.space._referenced |= 1 << self.index
        else:
            self.space._referenced &= ~(1 << self.index)

    def write(self) -> None:
        """Record a store to this page."""
        space, index = self.space, self.index
        space.versions[index] += 1
        bit = 1 << index
        space._dirty |= bit
        space._referenced |= bit

    def read(self) -> None:
        """Record a load from this page."""
        self.space._referenced |= 1 << self.index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            f for f, on in (("D", self.dirty), ("R", self.resident)) if on
        )
        return f"<Page {self.index} v{self.version} {flags}>"


class _PageViews:
    """Sequence adapter presenting a space's flat table as ``pages``.

    The :class:`Page` views are stateless ``(space, index)`` handles, so
    one shared view per page (materialized lazily, all at once on first
    access) serves every caller; indexing and iteration hand out the
    cached handles instead of allocating.
    """

    __slots__ = ("space",)

    def __init__(self, space: "AddressSpace"):
        self.space = space

    def __len__(self) -> int:
        return self.space._n_pages

    def __getitem__(self, index):
        views = self.space._views()
        if isinstance(index, slice):
            return views[index]
        n = self.space._n_pages
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"page {index} outside space of {n} pages")
        return views[index]

    def __iter__(self) -> Iterator[Page]:
        return iter(self.space._views())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<pages of {self.space!r}>"


class AddressSpace:
    """A simulated V address space (one per team).

    Layout: ``code_bytes`` of read-only text at the bottom, then
    ``data_bytes`` of initialized data, then the zero-filled heap/stack
    making up the rest of ``size_bytes``.  The distinction matters to
    pre-copy: code pages are written once at load and never again, so the
    first copy round moves them while the program keeps running and later
    rounds never see them dirty (paper §3.1.2).
    """

    def __init__(
        self,
        size_bytes: int,
        code_bytes: int = 0,
        data_bytes: int = 0,
        name: str = "",
    ):
        if size_bytes <= 0:
            raise KernelError(f"address space size must be positive, got {size_bytes}")
        if code_bytes + data_bytes > size_bytes:
            raise KernelError("code + data exceed the address space size")
        self.space_id = next(_space_ids)
        self.name = name or f"space-{self.space_id}"
        self.size_bytes = size_bytes
        self.code_bytes = code_bytes
        self.data_bytes = data_bytes
        n_pages = (size_bytes + PAGE_SIZE - 1) // PAGE_SIZE
        self._n_pages = n_pages
        #: Flat per-page version vector (public: the pager and the copy
        #: engine read it directly on their fast paths).
        self.versions = array("Q", bytes(8 * n_pages))
        self._full_mask = (1 << n_pages) - 1
        self._mask_nbytes = (n_pages + 7) >> 3
        self._view_list: Optional[List[Page]] = None
        self._dirty = 0
        self._referenced = 0
        self._resident = self._full_mask
        #: Seed-compatible per-page view (``space.pages[i].dirty`` etc).
        self.pages = _PageViews(self)
        #: Demand pager, when the space is virtual-memory managed
        #: (attached by :func:`repro.vm.attach_pager`).
        self.pager = None

    # ------------------------------------------------------------ geometry

    @property
    def n_pages(self) -> int:
        """Total number of pages."""
        return self._n_pages

    def _views(self) -> List[Page]:
        """The shared per-page view handles, materialized on first use."""
        views = self._view_list
        if views is None:
            views = self._view_list = [Page(self, i) for i in range(self._n_pages)]
        return views

    @property
    def code_pages(self) -> int:
        """Number of pages holding read-only program text."""
        return (self.code_bytes + PAGE_SIZE - 1) // PAGE_SIZE

    @property
    def full_mask(self) -> int:
        """Bitmask with one set bit per page of the space."""
        return self._full_mask

    def page_of(self, offset: int) -> Page:
        """The page containing byte ``offset``."""
        if not 0 <= offset < self.size_bytes:
            raise KernelError(
                f"offset {offset} outside address space of {self.size_bytes} bytes"
            )
        return Page(self, offset // PAGE_SIZE)

    # --------------------------------------------------------------- masks

    @property
    def dirty_mask(self) -> int:
        """Bitmask of pages modified since the last dirty collection."""
        return self._dirty

    @dirty_mask.setter
    def dirty_mask(self, mask: int) -> None:
        self._dirty = mask & self._full_mask

    @property
    def referenced_mask(self) -> int:
        """Bitmask of pages touched since the reference bits were cleared."""
        return self._referenced

    @referenced_mask.setter
    def referenced_mask(self, mask: int) -> None:
        self._referenced = mask & self._full_mask

    @property
    def resident_mask(self) -> int:
        """Bitmask of pages present in physical memory."""
        return self._resident

    @resident_mask.setter
    def resident_mask(self, mask: int) -> None:
        self._resident = mask & self._full_mask

    def span_mask(self, offset: int, nbytes: int) -> int:
        """Bitmask of the pages covering ``[offset, offset+nbytes)``."""
        if nbytes <= 0:
            return 0
        first = offset // PAGE_SIZE
        last = (offset + nbytes - 1) // PAGE_SIZE
        return ((1 << (last - first + 1)) - 1) << first

    # ------------------------------------------------------------- touching

    def touch(self, offset: int, nbytes: int, write: bool = True) -> None:
        """Record loads/stores over ``[offset, offset+nbytes)``."""
        if nbytes <= 0:
            return
        if offset < 0 or offset + nbytes > self.size_bytes:
            raise KernelError(
                f"touch [{offset}, {offset + nbytes}) outside space of "
                f"{self.size_bytes} bytes"
            )
        first = offset // PAGE_SIZE
        last = (offset + nbytes - 1) // PAGE_SIZE
        mask = ((1 << (last - first + 1)) - 1) << first
        self._referenced |= mask
        if write:
            self._dirty |= mask
            versions = self.versions
            for index in range(first, last + 1):
                versions[index] += 1

    def touch_pages(self, indexes: Iterable[int], write: bool = True) -> None:
        """Record loads/stores to whole pages by index.

        The mask is accumulated in a little-endian byte buffer (small-int
        arithmetic only) and converted once, instead of building a
        full-width ``1 << index`` integer per page."""
        n = self._n_pages
        buf = bytearray(self._mask_nbytes)
        if write:
            versions = self.versions
            for index in indexes:
                if not 0 <= index < n:
                    raise IndexError(f"page {index} outside space of {n} pages")
                versions[index] += 1
                buf[index >> 3] |= 1 << (index & 7)
            mask = int.from_bytes(buf, "little")
            self._dirty |= mask
        else:
            for index in indexes:
                if not 0 <= index < n:
                    raise IndexError(f"page {index} outside space of {n} pages")
                buf[index >> 3] |= 1 << (index & 7)
            mask = int.from_bytes(buf, "little")
        self._referenced |= mask

    def load_image(self) -> None:
        """Mark the whole space written, as a fresh program load does."""
        versions = self.versions
        for index in range(self._n_pages):
            versions[index] += 1
        self._dirty = self._full_mask
        self._referenced = self._full_mask

    # ---------------------------------------------------------- dirty bits

    def dirty_pages(self) -> List[Page]:
        """Pages whose dirty bit is set (O(dirty))."""
        mask = self._dirty
        if not mask:
            return []
        if mask == self._full_mask:  # fully dirty (fresh load): no scan
            return list(self._views())
        return list(map(self._views().__getitem__, bit_indexes(mask)))

    def dirty_page_count(self) -> int:
        """Number of dirty pages (one popcount)."""
        return _popcount(self._dirty)

    def dirty_bytes(self) -> int:
        """Total bytes of dirty pages (one popcount)."""
        return _popcount(self._dirty) * PAGE_SIZE

    def collect_dirty(self) -> List[Page]:
        """Atomically gather-and-clear the dirty set (the kernel's
        scan-and-reset of the MMU dirty bits).  O(dirty)."""
        mask = self._dirty
        if not mask:
            return []
        self._dirty = 0
        if mask == self._full_mask:  # fully dirty (fresh load): no scan
            return list(self._views())
        return list(map(self._views().__getitem__, bit_indexes(mask)))

    def clear_referenced(self) -> None:
        """Clear all reference bits (VM clock hand sweep)."""
        self._referenced = 0

    # ------------------------------------------------------------ snapshots

    def version_items(
        self, indexes: Optional[Iterable[int]] = None
    ) -> List[Tuple[int, int]]:
        """``(index, version)`` pairs for ``indexes`` (all pages when
        None), read straight off the flat array -- the batch-snapshot
        primitive the copy engine uses instead of per-page view calls.
        Out-of-range indexes (negative ones included) are skipped."""
        versions = self.versions
        if indexes is None:
            return list(enumerate(versions))
        n = self._n_pages
        return [(i, versions[i]) for i in indexes if 0 <= i < n]

    def version_vector(self) -> Dict[int, int]:
        """Page-index → version map; equality with another space's vector
        means the copies are identical."""
        return dict(enumerate(self.versions))

    def apply_copy(self, pages: Iterable[Page]) -> None:
        """Install copied pages (by version) into this space, as the
        receiving kernel does for CopyTo data.  ``pages`` are page views
        or snapshots: anything with ``index`` and ``version``."""
        n = self._n_pages
        versions = self.versions
        buf = bytearray(self._mask_nbytes)
        for src_page in pages:
            index = src_page.index
            if index >= n:
                raise KernelError(
                    f"copied page {index} outside destination space "
                    f"of {n} pages"
                )
            versions[index] = src_page.version
            buf[index >> 3] |= 1 << (index & 7)
        self._resident |= int.from_bytes(buf, "little")

    def identical_to(self, other: "AddressSpace") -> bool:
        """Whether the two spaces hold the same page versions."""
        return (self.size_bytes == other.size_bytes
                and self.versions == other.versions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AddressSpace {self.name} {self.size_bytes}B {self.n_pages}p>"
