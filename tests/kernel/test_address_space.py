"""Unit tests for address spaces, pages and dirty-bit machinery."""

import pytest

from repro.config import PAGE_SIZE
from repro.errors import KernelError
from repro.kernel import AddressSpace


def test_page_count_rounds_up():
    space = AddressSpace(PAGE_SIZE * 3 + 1)
    assert space.n_pages == 4


def test_size_must_be_positive():
    with pytest.raises(KernelError):
        AddressSpace(0)


def test_code_plus_data_must_fit():
    with pytest.raises(KernelError):
        AddressSpace(PAGE_SIZE, code_bytes=PAGE_SIZE, data_bytes=1)


def test_touch_write_sets_dirty_and_bumps_version():
    space = AddressSpace(PAGE_SIZE * 4)
    space.touch(0, 10)
    page = space.pages[0]
    assert page.dirty
    assert page.version == 1
    assert not space.pages[1].dirty


def test_touch_read_does_not_dirty():
    space = AddressSpace(PAGE_SIZE * 2)
    space.touch(0, 10, write=False)
    assert not space.pages[0].dirty
    assert space.pages[0].referenced


def test_touch_spanning_pages_dirties_all():
    space = AddressSpace(PAGE_SIZE * 4)
    space.touch(PAGE_SIZE - 1, PAGE_SIZE + 2)
    assert [p.dirty for p in space.pages] == [True, True, True, False]


def test_touch_out_of_range_rejected():
    space = AddressSpace(PAGE_SIZE)
    with pytest.raises(KernelError):
        space.touch(0, PAGE_SIZE + 1)
    with pytest.raises(KernelError):
        space.touch(-1, 2)


def test_touch_zero_bytes_is_noop():
    space = AddressSpace(PAGE_SIZE)
    space.touch(0, 0)
    assert not space.pages[0].dirty


def test_touch_pages_by_index():
    space = AddressSpace(PAGE_SIZE * 5)
    space.touch_pages([1, 3])
    assert [p.dirty for p in space.pages] == [False, True, False, True, False]


def test_collect_dirty_clears_bits():
    space = AddressSpace(PAGE_SIZE * 3)
    space.touch_pages([0, 2])
    collected = space.collect_dirty()
    assert [p.index for p in collected] == [0, 2]
    assert space.dirty_pages() == []
    # Versions survive collection.
    assert space.pages[0].version == 1


def test_dirty_bytes():
    space = AddressSpace(PAGE_SIZE * 8)
    space.touch_pages([0, 1, 2])
    assert space.dirty_bytes() == 3 * PAGE_SIZE


def test_load_image_writes_every_page():
    space = AddressSpace(PAGE_SIZE * 4)
    space.load_image()
    assert all(p.dirty and p.version == 1 for p in space.pages)


def test_apply_copy_transfers_versions():
    src = AddressSpace(PAGE_SIZE * 4)
    dst = AddressSpace(PAGE_SIZE * 4)
    src.touch_pages([0, 1, 2, 3])
    src.touch_pages([2])
    dst.apply_copy(src.pages)
    assert dst.identical_to(src)


def test_apply_copy_out_of_range_page_rejected():
    src = AddressSpace(PAGE_SIZE * 4)
    dst = AddressSpace(PAGE_SIZE * 2)
    with pytest.raises(KernelError):
        dst.apply_copy(src.pages)


def test_identical_to_detects_divergence():
    a = AddressSpace(PAGE_SIZE * 2)
    b = AddressSpace(PAGE_SIZE * 2)
    assert a.identical_to(b)
    a.touch(0, 1)
    assert not a.identical_to(b)


def test_code_pages_geometry():
    space = AddressSpace(PAGE_SIZE * 10, code_bytes=PAGE_SIZE * 3 + 5)
    assert space.code_pages == 4


def test_page_of():
    space = AddressSpace(PAGE_SIZE * 2)
    assert space.page_of(0).index == 0
    assert space.page_of(PAGE_SIZE).index == 1
    with pytest.raises(KernelError):
        space.page_of(PAGE_SIZE * 2)


def test_clear_referenced():
    space = AddressSpace(PAGE_SIZE * 2)
    space.touch(0, 1, write=False)
    space.clear_referenced()
    assert not any(p.referenced for p in space.pages)


def test_version_vector_equality_semantics():
    a = AddressSpace(PAGE_SIZE * 3)
    a.touch_pages([1])
    assert a.version_vector() == {0: 0, 1: 1, 2: 0}
