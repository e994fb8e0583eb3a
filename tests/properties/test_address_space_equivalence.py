"""Observation equivalence: bitmap AddressSpace vs the seed implementation.

The flat (version-array + bitmask) page table must be indistinguishable
from the seed's one-object-per-page representation under every sequence
of kernel-visible operations: same version vectors, same
``collect_dirty`` ordering, same dirty/referenced/resident flags, same
``identical_to`` verdicts.  Hypothesis drives both implementations
through identical randomized touch/copy/collect sequences and compares
every observable after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PAGE_SIZE
from repro.kernel import AddressSpace
from tests.properties._legacy_address_space import LegacyAddressSpace

MAX_PAGES = 24


def _observe(space):
    """Everything the kernel can see about a space's pages."""
    return {
        "version_vector": space.version_vector(),
        "dirty": [p.dirty for p in space.pages],
        "referenced": [p.referenced for p in space.pages],
        "resident": [p.resident for p in space.pages],
        "dirty_bytes": space.dirty_bytes(),
        "dirty_order": [p.index for p in space.dirty_pages()],
    }


def _operations(n_pages):
    size = n_pages * PAGE_SIZE
    offsets = st.integers(0, size - 1)
    index_lists = st.lists(st.integers(0, n_pages - 1), max_size=2 * n_pages)
    return st.lists(
        st.one_of(
            st.tuples(st.just("touch"), offsets, st.integers(1, size),
                      st.booleans()),
            st.tuples(st.just("touch_pages"), index_lists, st.booleans()),
            st.tuples(st.just("collect_dirty")),
            st.tuples(st.just("clear_referenced")),
            st.tuples(st.just("load_image")),
            st.tuples(st.just("copy_dirty_to_twin")),
            st.tuples(st.just("copy_all_to_twin")),
        ),
        max_size=30,
    )


def _apply(space, twin, op):
    """Run one operation; returns per-step observables to compare."""
    kind = op[0]
    if kind == "touch":
        _, offset, nbytes, write = op
        nbytes = min(nbytes, space.size_bytes - offset)
        space.touch(offset, nbytes, write=write)
    elif kind == "touch_pages":
        _, indexes, write = op
        space.touch_pages(indexes, write=write)
    elif kind == "collect_dirty":
        return [p.index for p in space.collect_dirty()]
    elif kind == "clear_referenced":
        space.clear_referenced()
    elif kind == "load_image":
        space.load_image()
    elif kind == "copy_dirty_to_twin":
        twin.apply_copy(space.dirty_pages())
    elif kind == "copy_all_to_twin":
        twin.apply_copy(space.pages)
    return None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bitmap_space_is_observation_equivalent_to_seed(data):
    n_pages = data.draw(st.integers(1, MAX_PAGES), label="n_pages")
    size = n_pages * PAGE_SIZE
    new, new_twin = AddressSpace(size), AddressSpace(size)
    old, old_twin = LegacyAddressSpace(size), LegacyAddressSpace(size)
    ops = data.draw(_operations(n_pages), label="ops")

    for op in ops:
        new_result = _apply(new, new_twin, op)
        old_result = _apply(old, old_twin, op)
        assert new_result == old_result, op
        assert _observe(new) == _observe(old), op
        assert new.version_vector() == old.version_vector()
        assert new_twin.version_vector() == old_twin.version_vector()
        # identical_to verdicts agree, including across the twin pair.
        assert new.identical_to(new_twin) == old.identical_to(old_twin)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_precopy_invariant_matches_seed(data):
    """The pre-copy convergence loop (full copy, then rounds of dirty
    copies) lands both implementations in identical states."""
    n_pages = data.draw(st.integers(1, MAX_PAGES))
    size = n_pages * PAGE_SIZE
    new, new_dst = AddressSpace(size), AddressSpace(size)
    old, old_dst = LegacyAddressSpace(size), LegacyAddressSpace(size)

    rounds = data.draw(st.lists(
        st.lists(st.integers(0, n_pages - 1), max_size=n_pages),
        min_size=1, max_size=5,
    ))
    # Round 0: full copy with cleared dirty bits (precopy_space's setup).
    for space in (new, old):
        space.collect_dirty()
    new_dst.apply_copy(new.pages)
    old_dst.apply_copy(old.pages)
    for writes in rounds:
        new.touch_pages(writes)
        old.touch_pages(writes)
        moved_new = new.collect_dirty()
        moved_old = old.collect_dirty()
        assert [p.index for p in moved_new] == [p.index for p in moved_old]
        new_dst.apply_copy(moved_new)
        old_dst.apply_copy(moved_old)
        assert new_dst.identical_to(new) == old_dst.identical_to(old)

    assert new_dst.identical_to(new)
    assert old_dst.identical_to(old)
    assert new_dst.version_vector() == old_dst.version_vector()
