"""Pinned payload digests of the ``chaos`` scenario: one per fault
schedule, and two of the differential pass.

Each schedule's run is the scenario at its defaults (storm off, no
perturber), seed 7, 20 messages: the same kind of unit the chaos
campaign and the benchmark's ``chaos_campaign`` workload run.  Any
change that moves a single packet, fault draw or invariant count of a
storm-off chaos run shows up here.

The pass pins are its records 0 and 1 at seed 7, 20 messages: the
lossless unit with the tie storm on, and its first tie-perturbed rerun
(perturber seed ``derive_seed(7, "verify:perturb:0")``, rate 0.25).
Any change to how a perturber reaches the simulator that moves a
single packet or a single tie shows up there.
"""

import pytest

from repro.faults.campaign import (
    canonical_digest,
    chaos_scenario,
    differential_pass,
    schedule_names,
)

DIGESTS = {
    "burst":
        "4b845b2de35e824956d20aefefdf50c3db78a66e720d72e60a4447d1af5f3bd4",
    "corrupt":
        "ee947b41f81a7b90646975032ed852bf56b81b271ba9937e3b06452952ae2e31",
    "crash":
        "cd25d342bb7d8ed381fc48264bff13fbe55413503f27e8c0cf53b487130b6d0f",
    "drop":
        "0354cdc55efe81cfd834868d5050f8bccb71dbea25b3aeb203d7addb47eb8920",
    "duplicate":
        "eb477c73505d71c2cbe426bc326168c6ce926a72c6481a0bfb7c509ef7be15e8",
    "mixed":
        "569694e1b742d8e299aad931192455ef92f1f8e0bd9eba1bff088cf729b6b33c",
    "reorder":
        "0ef404222fae28b7df9659c119c6805e45b17ceab6319b00711f3e65e92e4999",
}


def test_every_schedule_is_pinned():
    assert sorted(DIGESTS) == schedule_names()


@pytest.mark.parametrize("schedule", sorted(DIGESTS))
def test_chaos_payload_digest_is_pinned(schedule):
    payload = chaos_scenario({"schedule": schedule, "messages": 20}, 7)
    assert payload["invariants_ok"]
    assert canonical_digest(payload) == DIGESTS[schedule]


PASS_DIGESTS = {
    "lossless":
        "5a1605623f634d0a637a1750eded65544b04fef659f935978a70561180bd157b",
    "perturb:0":
        "d6de741b3be3958c612d55594109e74dd7579822a3f9a4d6b44acabd04bf8e81",
}


@pytest.fixture(scope="module")
def seed7_pass():
    return differential_pass(master_seed=7, messages=20)


@pytest.mark.parametrize("label", PASS_DIGESTS)
def test_pass_record_digest_is_pinned(seed7_pass, label):
    record = seed7_pass["records"][list(PASS_DIGESTS).index(label)]
    assert record["label"] == label
    assert record["payload_sha256"] == PASS_DIGESTS[label]
    assert record["payload_sha256"] == canonical_digest(record["payload"])


def test_baseline_payload_does_not_depend_on_the_seed():
    """``chaos --seed`` moves the pass's perturber seeds only: a
    lossless run draws nothing from the scenario seed, so the pass's
    lossless record replays one payload at seeds 3 and 7."""
    digests = {seed: differential_pass(master_seed=seed, messages=20)
               ["records"][0]["payload_sha256"] for seed in (3, 7)}
    assert digests == {3: PASS_DIGESTS["lossless"],
                       7: PASS_DIGESTS["lossless"]}
