"""Unit tests for the invariant harness: each hook, both strictness
modes, and the structured context carried by violations."""

import gc

import pytest

from repro.errors import InvariantViolation
from repro.faults.invariants import INVARIANTS, InvariantChecker
from repro.sim import Simulator


class _Lh:
    def __init__(self, frozen=False, procs=1):
        self.frozen = frozen
        self._procs = procs

    def has_live_process(self):
        return self._procs > 0


class _Kernel:
    def __init__(self, name, alive=True, hosts=None):
        self.name = name
        self.alive = alive
        self.logical_hosts = dict(hosts or {})


class _Station:
    def __init__(self, kernel):
        self.kernel = kernel


class _Cluster:
    def __init__(self, *kernels):
        self.workstations = [_Station(k) for k in kernels]
        self.server_machines = []


def _checker(**kwargs):
    kwargs.setdefault("grace_us", 1_000_000)
    return InvariantChecker(cluster=None, **kwargs)


class TestAtMostOnce:
    def test_first_delivery_is_fine(self):
        checker = _checker()
        checker.note_request_delivered("pid-a", 3, "pid-b")
        assert checker.ok
        assert checker.deliveries_checked == 1

    def test_second_delivery_of_same_key_violates(self):
        checker = _checker(strict=False)
        checker.note_request_delivered("pid-a", 3, "pid-b")
        checker.note_request_delivered("pid-a", 3, "pid-b")
        assert not checker.ok
        assert checker.summary()["at-most-once"] == 1

    def test_retransmission_with_new_seq_is_distinct(self):
        checker = _checker()
        checker.note_request_delivered("pid-a", 3, "pid-b")
        checker.note_request_delivered("pid-a", 4, "pid-b")
        checker.note_request_delivered("pid-c", 3, "pid-b")
        assert checker.ok

    def test_strict_raises_with_structured_context(self):
        checker = _checker(strict=True)
        checker.note_request_delivered("pid-a", 9, "pid-b")
        with pytest.raises(InvariantViolation) as exc_info:
            checker.note_request_delivered("pid-a", 9, "pid-b")
        violation = exc_info.value
        assert violation.invariant == "at-most-once"
        assert violation.detail["seq"] == 9
        assert violation.detail["count"] == 2
        assert violation.detail["sender"] == "pid-a"
        assert violation.detail["recipient"] == "pid-b"


class TestNoResidualDependency:
    def test_pre_migration_churn_is_not_residual(self):
        checker = _checker(strict=True)
        checker.note_stale_request(lhid=5, host="ws1", now=10_000_000)
        assert checker.ok

    def test_stale_traffic_inside_grace_window_tolerated(self):
        checker = _checker(strict=True, grace_us=1_000_000)
        checker.note_migration_commit(lhid=5, old_host="ws1", now=100)
        checker.note_stale_request(lhid=5, host="ws1", now=100 + 1_000_000)
        assert checker.ok

    def test_stale_traffic_past_grace_violates(self):
        checker = _checker(strict=False, grace_us=1_000_000)
        checker.note_migration_commit(lhid=5, old_host="ws1", now=100)
        checker.note_stale_request(lhid=5, host="ws1", now=1_500_000)
        assert checker.summary()["no-residual-dependency"] == 1
        violation = checker.violations[0]
        assert violation.invariant == "no-residual-dependency"
        assert violation.at_us == 1_500_000
        assert violation.detail["lhid"] == 5
        assert violation.detail["host"] == "ws1"
        assert violation.detail["committed_at"] == 100

    def test_stale_traffic_at_a_different_host_is_unrelated(self):
        # Stale requests at some third host (e.g. after a reboot) are
        # not this invariant's business.
        checker = _checker(strict=True, grace_us=1_000_000)
        checker.note_migration_commit(lhid=5, old_host="ws1", now=100)
        checker.note_stale_request(lhid=5, host="ws2", now=9_000_000)
        assert checker.ok


class TestPageVersionMonotonicity:
    class _Page:
        def __init__(self, index, version):
            self.index = index
            self.version = version

    class _Space:
        name = "space-a"

    def test_monotone_rounds_are_fine(self):
        checker = _checker(strict=True)
        space = self._Space()
        checker.note_page_versions(space, [self._Page(0, 1), self._Page(1, 1)])
        checker.note_page_versions(space, [self._Page(0, 3), self._Page(1, 1)])
        assert checker.ok

    def test_version_regression_violates(self):
        checker = _checker(strict=False)
        space = self._Space()
        checker.note_page_versions(space, [self._Page(7, 4)])
        checker.note_page_versions(space, [self._Page(7, 2)])
        assert checker.summary()["page-version-monotonicity"] == 1
        violation = checker.violations[0]
        assert violation.detail["page"] == 7
        assert violation.detail["was"] == 4
        assert violation.detail["now_version"] == 2
        assert violation.detail["space"] == "space-a"

    def test_spaces_are_tracked_independently(self):
        checker = _checker(strict=True)
        a, b = self._Space(), self._Space()
        checker.note_page_versions(a, [self._Page(0, 9)])
        checker.note_page_versions(b, [self._Page(0, 1)])  # other space
        assert checker.ok

    def test_freed_spaces_leave_no_records(self):
        # A freed space's records must go with it: CPython reuses the
        # id() of a collected object, so id-keyed records would compare
        # a fresh space's versions against a dead one's.
        from repro.kernel.address_space import AddressSpace

        checker = _checker(strict=False)
        for _ in range(50):
            space = AddressSpace(16 * 4096)
            for _ in range(3):
                space.touch(0, space.size_bytes)
            checker.note_page_versions(space, space.pages)
            del space
            gc.collect()
        assert checker.ok
        assert len(checker._page_versions) == 0


class TestSingleExecution:
    def _sim(self):
        return Simulator(seed=0)

    def test_one_runnable_copy_is_fine(self):
        lh = _Lh()
        cluster = _Cluster(_Kernel("ws0", hosts={5: lh}), _Kernel("ws1"))
        checker = InvariantChecker(cluster, grace_us=0)
        checker.after_event(self._sim())
        assert checker.ok

    def test_frozen_source_copy_during_commit_window_is_fine(self):
        # During migration the same lhid exists on two machines -- but
        # the source is frozen, which is exactly the legal state.
        lh_frozen = _Lh(frozen=True)
        lh_live = _Lh()
        cluster = _Cluster(
            _Kernel("ws0", hosts={5: lh_frozen}),
            _Kernel("ws1", hosts={5: lh_live}),
        )
        checker = InvariantChecker(cluster, grace_us=0)
        checker.after_event(self._sim())
        assert checker.ok

    def test_two_runnable_copies_violate(self):
        cluster = _Cluster(
            _Kernel("ws0", hosts={5: _Lh()}),
            _Kernel("ws1", hosts={5: _Lh()}),
        )
        checker = InvariantChecker(cluster, strict=False, grace_us=0)
        checker.after_event(self._sim())
        assert checker.summary()["single-execution"] == 1
        violation = checker.violations[0]
        assert violation.detail["lhid"] == 5
        assert sorted(violation.detail["hosts"]) == ["ws0", "ws1"]

    def test_dead_kernel_copy_does_not_count(self):
        cluster = _Cluster(
            _Kernel("ws0", hosts={5: _Lh()}),
            _Kernel("ws1", alive=False, hosts={5: _Lh()}),
        )
        checker = InvariantChecker(cluster, grace_us=0)
        checker.after_event(self._sim())
        assert checker.ok

    def test_clean_scan_disarms_until_a_transition(self):
        # Every event is counted, but after a clean scan the machines
        # are rescanned only once a transition re-arms the check.
        ws0, ws1 = _Kernel("ws0", hosts={5: _Lh()}), _Kernel("ws1")
        checker = InvariantChecker(_Cluster(ws0, ws1), strict=False,
                                   grace_us=0)
        sim = self._sim()
        checker.after_event(sim)
        ws1.logical_hosts[5] = _Lh()  # unannounced: not a kernel transition
        checker.after_event(sim)
        assert checker.ok
        checker.note_runnable()
        checker.after_event(sim)
        assert checker.summary()["single-execution"] == 1
        assert checker.events_checked == 3

    def test_persistent_violation_is_reported_every_event(self):
        cluster = _Cluster(
            _Kernel("ws0", hosts={5: _Lh()}),
            _Kernel("ws1", hosts={5: _Lh()}),
        )
        checker = InvariantChecker(cluster, strict=False, grace_us=0)
        sim = self._sim()
        for _ in range(4):
            checker.after_event(sim)
        assert checker.summary()["single-execution"] == 4


class TestReporting:
    def test_summary_always_lists_all_four_invariants(self):
        checker = _checker()
        assert checker.summary() == {name: 0 for name in INVARIANTS}

    def test_non_strict_collects_every_breach(self):
        checker = _checker(strict=False)
        for _ in range(3):
            checker.note_request_delivered("a", 1, "b")
        assert len(checker.violations) == 2  # deliveries 2 and 3
        assert checker.summary()["at-most-once"] == 2

    def test_install_sets_the_simulator_hook(self):
        sim = Simulator(seed=0)
        assert sim.invariants is None
        checker = _checker().install(sim)
        assert sim.invariants is checker
