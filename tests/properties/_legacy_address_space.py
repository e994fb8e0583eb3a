"""The seed per-page-object address space, kept verbatim.

This is the original (pre-bitmap) implementation of
:mod:`repro.kernel.address_space`: one Python object per page and
O(n_pages) full-list scans for every dirty-bit operation.  It is a test
oracle only: ``test_address_space_equivalence.py`` drives it and the
flat bitmap implementation through identical operation sequences and
asserts observation equivalence (same version vectors, same
``collect_dirty`` ordering, same ``identical_to`` verdicts).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List

from repro.config import PAGE_SIZE
from repro.errors import KernelError

_space_ids = itertools.count(1)


class LegacyPage:
    """One page of a simulated address space (seed representation)."""

    __slots__ = ("index", "version", "dirty", "resident", "referenced")

    def __init__(self, index: int):
        self.index = index
        self.version = 0
        self.dirty = False
        self.resident = True
        self.referenced = False

    def write(self) -> None:
        """Record a store to this page."""
        self.version += 1
        self.dirty = True
        self.referenced = True

    def read(self) -> None:
        """Record a load from this page."""
        self.referenced = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            f for f, on in (("D", self.dirty), ("R", self.resident)) if on
        )
        return f"<LegacyPage {self.index} v{self.version} {flags}>"


class LegacyAddressSpace:
    """The seed AddressSpace: a list of page objects, scanned in full."""

    #: Consumers branch on this to pick bitmap fast paths; the legacy
    #: representation keeps them on the seed's O(n_pages) walks.
    FLAT = False

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
        self.pages: List[LegacyPage] = [LegacyPage(i) for i in range(n_pages)]
        self.pager = None

    # ------------------------------------------------------------ geometry

    @property
    def n_pages(self) -> int:
        return len(self.pages)

    @property
    def code_pages(self) -> int:
        return (self.code_bytes + PAGE_SIZE - 1) // PAGE_SIZE

    def page_of(self, offset: int) -> LegacyPage:
        if not 0 <= offset < self.size_bytes:
            raise KernelError(
                f"offset {offset} outside address space of {self.size_bytes} bytes"
            )
        return self.pages[offset // PAGE_SIZE]

    # ------------------------------------------------------------- touching

    def touch(self, offset: int, nbytes: int, write: bool = True) -> None:
        if nbytes <= 0:
            return
        if offset < 0 or offset + nbytes > self.size_bytes:
            raise KernelError(
                f"touch [{offset}, {offset + nbytes}) outside space of "
                f"{self.size_bytes} bytes"
            )
        first = offset // PAGE_SIZE
        last = (offset + nbytes - 1) // PAGE_SIZE
        for index in range(first, last + 1):
            page = self.pages[index]
            if write:
                page.write()
            else:
                page.read()

    def touch_pages(self, indexes: Iterable[int], write: bool = True) -> None:
        for index in indexes:
            page = self.pages[index]
            if write:
                page.write()
            else:
                page.read()

    def load_image(self) -> None:
        for page in self.pages:
            page.write()

    # ---------------------------------------------------------- dirty bits

    def dirty_pages(self) -> List[LegacyPage]:
        return [p for p in self.pages if p.dirty]

    def dirty_page_count(self) -> int:
        return len(self.dirty_pages())

    def dirty_bytes(self) -> int:
        return len(self.dirty_pages()) * PAGE_SIZE

    def collect_dirty(self) -> List[LegacyPage]:
        collected = []
        for page in self.pages:
            if page.dirty:
                page.dirty = False
                collected.append(page)
        return collected

    def clear_referenced(self) -> None:
        for page in self.pages:
            page.referenced = False

    # ------------------------------------------------------------ snapshots

    def version_vector(self) -> Dict[int, int]:
        return {p.index: p.version for p in self.pages}

    def apply_copy(self, pages: Iterable[LegacyPage]) -> None:
        for src in pages:
            if src.index >= len(self.pages):
                raise KernelError(
                    f"copied page {src.index} outside destination space "
                    f"of {len(self.pages)} pages"
                )
            dst = self.pages[src.index]
            dst.version = src.version
            dst.resident = True

    def identical_to(self, other) -> bool:
        return (
            self.size_bytes == other.size_bytes
            and self.version_vector() == other.version_vector()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LegacyAddressSpace {self.name} {self.size_bytes}B {self.n_pages}p>"
