"""Observation equivalence: the one-sweep capped pager vs the per-victim
loop it replaced.

:meth:`repro.vm.Pager.service_faults` takes every CLOCK victim of one
touch from a single sweep of the hand.  ``_sequential_pager`` keeps the
old loop (a popcount and one whole eviction call per victim).  Hypothesis
starts both from the same page-table state -- cap, resident, referenced
and dirty masks, hand, versions and file-server store -- drives them
through the same unsorted, duplicate-bearing touch lists, and compares
everything the pager and the space expose after every touch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_MODEL, PAGE_SIZE
from repro.errors import KernelError
from repro.kernel import AddressSpace
from repro.vm import Pager
from tests.properties._sequential_pager import SequentialPager

MAX_PAGES = 70  # wider than one 64-bit word: masks are multi-digit ints


def _build(cls, n_pages, cap, resident, referenced, dirty, hand, versions, store):
    space = AddressSpace(n_pages * PAGE_SIZE)
    pager = cls(DEFAULT_MODEL, max_resident=cap).attach(space)
    space.resident_mask = resident
    space.referenced_mask = referenced
    space.dirty_mask = dirty
    for index, version in enumerate(versions):
        space.versions[index] = version
    pager.store = dict(store)
    pager._clock_hand = hand
    return space, pager


def _observe(space, pager):
    """Everything a fault can change, on the space and the pager."""
    return {
        "resident": space.resident_mask,
        "referenced": space.referenced_mask,
        "dirty": space.dirty_mask,
        "hand": pager._clock_hand,
        "versions": list(space.versions),
        "store": pager.store,
        "faults": pager.faults,
        "evictions": pager.evictions,
        "writeback_evictions": pager.writeback_evictions,
        "flushed_pages": pager.flushed_pages,
        "double_transfers": pager.double_transfers,
        "fault_us": pager.fault_us,
    }


def _fault(pager, indexes):
    """``service_faults``'s cost, or the error it raised."""
    try:
        return pager.service_faults(indexes)
    except KernelError:
        return "KernelError"


def _run_both(state, touches, write=True):
    """Drive both pagers through ``touches`` (each one fault call then
    the touch itself, as the scheduler does); returns the sweep's pager
    after checking it against the oracle at every step."""
    new_space, new = _build(Pager, **state)
    old_space, old = _build(SequentialPager, **state)
    assert _observe(new_space, new) == _observe(old_space, old)
    for indexes in touches:
        new_cost = _fault(new, indexes)
        old_cost = _fault(old, indexes)
        assert new_cost == old_cost, indexes
        assert _observe(new_space, new) == _observe(old_space, old), indexes
        if new_cost == "KernelError":
            break
        new_space.touch_pages(indexes, write=write)
        old_space.touch_pages(indexes, write=write)
    return new_space, new


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sweep_is_observation_equivalent_to_sequential_loop(data):
    n_pages = data.draw(st.integers(1, MAX_PAGES), label="n_pages")
    masks = st.integers(0, (1 << n_pages) - 1)
    state = {
        "n_pages": n_pages,
        "cap": data.draw(st.integers(0, n_pages + 1), label="cap"),
        "resident": data.draw(masks, label="resident"),
        "referenced": data.draw(masks, label="referenced"),
        "dirty": data.draw(masks, label="dirty"),
        "hand": data.draw(st.integers(0, n_pages - 1), label="hand"),
        "versions": data.draw(st.lists(st.integers(0, 4), min_size=n_pages,
                                       max_size=n_pages), label="versions"),
        "store": data.draw(st.dictionaries(st.integers(0, n_pages - 1),
                                           st.integers(0, 6)), label="store"),
    }
    touches = data.draw(st.lists(
        st.lists(st.integers(0, n_pages - 1), max_size=3 * n_pages),
        min_size=1, max_size=4,
    ), label="touches")
    _run_both(state, touches, write=data.draw(st.booleans(), label="write"))


def _state(n_pages, cap, resident=(), referenced=(), dirty=(), hand=0):
    def mask(indexes):
        return sum(1 << i for i in indexes)
    return {
        "n_pages": n_pages, "cap": cap, "resident": mask(resident),
        "referenced": mask(referenced), "dirty": mask(dirty), "hand": hand,
        "versions": [0] * n_pages, "store": {},
    }


def test_page_evicted_earlier_in_the_touch_faults_again():
    """Page 0 is resident when the touch starts, but faulting page 2
    evicts it; reaching 0 later in the same touch faults it back in."""
    space, pager = _run_both(_state(4, cap=2, resident=[0, 1]), [[2, 0]])
    assert pager.faults == 2
    assert pager.evictions == 2
    assert space.resident_mask == 0b101


def test_victim_behind_the_hand_wraps():
    """Nothing unreferenced at or after the hand: the sweep clears the
    tail's reference bits, wraps, and evicts from the front."""
    space, pager = _run_both(
        _state(8, cap=4, resident=[1, 2, 6, 7], referenced=[6, 7], hand=5),
        [[3, 4]],
    )
    assert pager.evictions == 2
    assert space.resident_mask == (1 << 3) | (1 << 4) | (1 << 6) | (1 << 7)
    assert pager._clock_hand == 3


def test_all_referenced_second_lap():
    """Every resident page is referenced: the first lap clears them all
    and the second evicts the first resident page at or after the hand;
    a page faulted in behind the hand keeps its reference bit."""
    space, pager = _run_both(
        _state(6, cap=3, resident=[0, 2, 4], referenced=[0, 1, 2, 4], hand=3),
        [[1, 5]],
        write=False,
    )
    assert pager.evictions == 2
    assert not space.pages[4].resident
    assert space.pages[1].resident


def test_zero_cap_raises_on_both():
    _run_both(_state(4, cap=0, resident=[1], dirty=[1]), [[0]])
    with pytest.raises(KernelError):
        _build(Pager, **_state(4, cap=0))[1].service_faults([0])
