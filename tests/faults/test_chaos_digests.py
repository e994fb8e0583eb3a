"""Pinned payload digests of the ``chaos`` scenario, one per fault
schedule.

Each run is the scenario at its defaults (storm off, no perturber),
seed 7, 20 messages: the same kind of unit the
chaos campaign and the benchmark's ``chaos_campaign`` workload run.
Any change that moves a single packet, fault draw or invariant count
of a storm-off chaos run shows up here.
"""

import pytest

from repro.faults.campaign import chaos_scenario, schedule_names
from repro.verify.scenario import canonical_digest

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
