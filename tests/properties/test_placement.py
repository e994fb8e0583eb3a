"""Placement properties.

Three contracts: probing every host finds the best fit on a quiesced
cluster (RandomK's ``k = n`` degenerate case picks the ``_fit_key``-least
of the managers' live load digests), every policy is coordinate-pure
under the sweep pool (serial and parallel ``job_storm`` runs are
byte-identical, per policy), and at 128 hosts RandomK probing costs a
fraction of the paper's multicast in selection messages while staying
near it on tail exec-to-start latency."""

import dataclasses

import pytest

from repro.cluster.placement import HostDigest, RandomK, _fit_key
from repro.execution import ExecSpec, exec_program
from repro.parallel import SweepSpec, run_sweep
from repro.parallel.scenarios import get_scenario
from repro.workloads import standard_registry

from tests.helpers import make_cluster


@pytest.mark.parametrize("n,seed", [(3, 0), (4, 7), (5, 23)])
def test_randomk_full_k_matches_best_fit_on_quiesced_cluster(n, seed):
    """With every host idle, probing all ``n`` of them places on the
    best fit: the ``_fit_key``-least of the managers' live
    ``load_digest()``s, read at the moment of the exec."""
    cluster = make_cluster(n, full=True, seed=seed,
                           registry=standard_registry(scale=0.3))
    best, chosen = [], []

    def session(ctx):
        digests = [HostDigest.from_fields(pm.load_digest())
                   for pm in cluster.program_managers.values()]
        best.append(min(digests, key=_fit_key).host)
        handle = yield from exec_program(ctx, ExecSpec(
            "cc68", args=("x.c",), where="*", policy=RandomK(k=n)))
        chosen.append(handle.host)

    cluster.spawn_session(cluster.workstations[0], session)
    while not chosen and cluster.sim.peek() is not None:
        cluster.sim.run(until_us=cluster.sim.now + 500_000)
    assert chosen == best


POLICIES = ("first_responder", "random_k")


@pytest.mark.parametrize("policy", POLICIES)
def test_job_storm_serial_parallel_byte_identity(policy):
    """Every policy's randomness comes from seeded, coordinate-pure
    streams, so a worker pool must merge to the serial bytes exactly."""
    spec = SweepSpec(
        scenario="job_storm",
        configs=({"workstations": 4, "jobs": 6, "policy": policy},),
        replications=2,
        master_seed=11,
        workers=1,
    )
    serial = run_sweep(spec)
    parallel = run_sweep(dataclasses.replace(spec, workers=2))
    assert parallel.to_json() == serial.to_json()


#: The placement plane's scale point: one job per host on 128 hosts,
#: where the multicast candidate query costs one message per host.
STORM_HOSTS = 128


@pytest.fixture(scope="module")
def storm_at_scale():
    """One seed-42 ``job_storm`` per policy at 128 hosts and 128 jobs."""
    config = {"workstations": STORM_HOSTS, "jobs": STORM_HOSTS}
    return {policy: get_scenario("job_storm")(dict(config, policy=policy), 42)
            for policy in POLICIES}


@pytest.mark.parametrize("policy", POLICIES)
def test_job_storm_at_scale_completes_every_job(storm_at_scale, policy):
    result = storm_at_scale[policy]
    assert result["failed"] == 0, result["failure_kinds"]
    assert result["completed"] == STORM_HOSTS


def test_randomk_cuts_selection_messages_at_least_5x(storm_at_scale):
    """Measured 127 -> 3.0 messages per exec (42x) at seed 42."""
    multicast = storm_at_scale["first_responder"]["selection_msgs_per_exec"]
    probing = storm_at_scale["random_k"]["selection_msgs_per_exec"]
    assert multicast >= 5 * probing, (multicast, probing)


def test_randomk_p99_exec_to_start_within_1_2x_of_multicast(storm_at_scale):
    """Measured 0.747 s against 0.923 s (0.81x) at seed 42."""
    probing = storm_at_scale["random_k"]["latency_us"]["p99"]
    multicast = storm_at_scale["first_responder"]["latency_us"]["p99"]
    assert probing <= 1.2 * multicast, (probing, multicast)
