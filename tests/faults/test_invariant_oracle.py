"""The transition-triggered single-execution scan against a full-scan
oracle.

The shipped :class:`InvariantChecker` rescans the machines only after a
transition that can make a logical host runnable (a process joining it,
an unfreeze, an lhid change).  :class:`FullScanChecker` rescans after
every event.  Both must produce the same
violations -- invariant, time and detail -- and count the same events,
on real chaos runs and on constructed cases that drive each transition
through the kernel API.
"""

import pytest

import repro.faults.campaign as campaign
from repro.errors import InvariantViolation
from repro.faults.invariants import InvariantChecker
from repro.kernel import Delay

from tests.helpers import make_cluster


class FullScanChecker(InvariantChecker):
    """Reference checker: re-arms the scan on every event."""

    def after_event(self, sim) -> None:
        self._scan_armed = True
        super().after_event(sim)


def _verdict(checker):
    return (
        [(v.invariant, v.at_us, v.detail) for v in checker.violations],
        checker.events_checked,
    )


# ------------------------------------------------------------ chaos units

def _run_burst_unit(monkeypatch, checker_cls, master_seed, replication):
    spec = campaign.campaign_spec(
        schedules=["burst"], seeds=40, messages=20, master_seed=master_seed,
    )
    _, _, seed, config = spec.units()[replication]
    made = []

    class Recording(checker_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(campaign, "InvariantChecker", Recording)
    result = campaign.chaos_scenario(config, seed)
    (checker,) = made
    return checker, result


@pytest.mark.parametrize("master_seed, replication",
                         [(19, 38), (20, 25), (21, 20)])
def test_burst_units_match_the_oracle(monkeypatch, master_seed, replication):
    # Burst-loss units whose retry path leaves two runnable copies for
    # hundreds of events: every one of those events must be reported.
    # In (20, 25) the retry offers the logical host to the host already
    # running the first attempt's copy, which refuses the install.
    shipped, shipped_run = _run_burst_unit(
        monkeypatch, InvariantChecker, master_seed, replication)
    oracle, oracle_run = _run_burst_unit(
        monkeypatch, FullScanChecker, master_seed, replication)
    assert shipped.violations
    assert _verdict(shipped) == _verdict(oracle)
    assert shipped_run == oracle_run


# ------------------------------------------------------ constructed cases

def _ticker():
    while True:
        yield Delay(1_000)


def _add_copy(kernel, lhid=None, frozen=False):
    """A logical host with one running process on ``kernel``."""
    lh = kernel.create_logical_host(lhid)
    kernel.allocate_space(lh, 64 * 1024)
    kernel.create_process(lh, _ticker(), name="copy")
    if frozen:
        kernel.freeze_logical_host(lh)
    return lh


def _run(checker_cls, steps, until_us=50_000):
    """Run a ticking program on ws0 and apply ``steps`` -- (time,
    fn(kernel1, original_lhid)) pairs -- as simulated events on ws1."""
    cluster = make_cluster(2, invariants=False)
    checker = checker_cls(cluster, strict=False).install(cluster.sim)
    original, _ = cluster.spawn_program(cluster.stations[0], _ticker())
    kernel1 = cluster.stations[1].kernel
    for at_us, step in steps:
        cluster.sim.schedule(at_us, step, kernel1, original.lhid)
    cluster.run(until_us=until_us)
    return checker


def _assert_caught_at(steps, at_us):
    shipped = _run(InvariantChecker, steps)
    assert shipped.violations, "second runnable copy never reported"
    assert shipped.violations[0].invariant == "single-execution"
    assert shipped.violations[0].at_us == at_us
    assert _verdict(shipped) == _verdict(_run(FullScanChecker, steps))


def test_second_copy_created_after_a_clean_scan():
    _assert_caught_at(
        [(10_000, lambda k, lhid: _add_copy(k, lhid))], at_us=10_000)


def test_unfrozen_duplicate():
    _assert_caught_at([
        (10_000, lambda k, lhid: _add_copy(k, lhid, frozen=True)),
        (20_000, lambda k, lhid: k.unfreeze_logical_host(
            k.logical_hosts[lhid])),
    ], at_us=20_000)


def test_change_lhid_onto_a_runnable_lhid():
    copies = []
    _assert_caught_at([
        (10_000, lambda k, lhid: copies.append(_add_copy(k))),
        (20_000, lambda k, lhid: k.change_lhid(copies.pop(), lhid)),
    ], at_us=20_000)


def test_violation_persisting_k_events_gives_k_violations():
    marks = []

    def add(kernel, lhid):
        marks.append(kernel.sim.invariants.events_checked)
        _add_copy(kernel, lhid)

    def destroy(kernel, lhid):
        marks.append(kernel.sim.invariants.events_checked)
        kernel.destroy_logical_host(kernel.logical_hosts[lhid])

    steps = [(10_000, add), (30_000, destroy)]
    shipped = _run(InvariantChecker, steps)
    start, end = marks
    k = end - start
    assert k > 1
    assert len(shipped.violations) == k
    assert _verdict(shipped) == _verdict(_run(FullScanChecker, steps))


# --------------------------------------------------- helper-built clusters

@pytest.mark.parametrize("full", [False, True])
def test_helper_clusters_carry_a_strict_checker(full):
    cluster = make_cluster(2, full=full)
    checker = cluster.sim.invariants
    assert isinstance(checker, InvariantChecker)
    assert checker.strict and checker.cluster is cluster
    assert make_cluster(2, full=full, invariants=False).sim.invariants is None


def test_helper_checker_fails_a_double_execution():
    cluster = make_cluster(2)
    original, _ = cluster.spawn_program(cluster.stations[0], _ticker())
    cluster.run(until_us=5_000)
    _add_copy(cluster.stations[1].kernel, original.lhid)
    with pytest.raises(InvariantViolation) as exc_info:
        cluster.run(until_us=10_000)
    assert exc_info.value.invariant == "single-execution"
