"""Pinned payload digests of the ``chaos`` scenario, one per fault
schedule.

Each run is the scenario at its defaults (storm off, no perturber, no
placement caches), seed 7, 20 messages: the same kind of unit the
chaos campaign and the benchmark's ``chaos_campaign`` workload run.
Any change that moves a single packet, fault draw or invariant count
of a storm-off chaos run shows up here.
"""

import pytest

from repro.faults.campaign import chaos_scenario, schedule_names
from repro.verify.scenario import canonical_digest

DIGESTS = {
    "burst":
        "e64572258bbf2975023478e1c7e828c4d3f51e0676980004b270b2cc180ce84f",
    "corrupt":
        "2040dfe8b2c0a31d1f18f5f7aafbe186e431fefe0a7625fa5c1bd6942116f8a9",
    "crash":
        "a24e8f610fa3715842c11ec8562ca225a812baba1973c906a34768c8fba925ee",
    "drop":
        "a5649bbd6859666008592768cfbe68ab2752882c1fcaa8cbe0999961255f306c",
    "duplicate":
        "9da67ab25e1c51b3dd1698ae240c082e322407dea14b6ef5362cf682dd51629f",
    "mixed":
        "e0a31392b50803efe8f615aefde6248987a52c7e8f798ada7b28124dbdd5782b",
    "reorder":
        "7270b687cfeb1f22b88a53a6429ddae0b31586c3dfedbe43911a8dd5b9b63d65",
}


def test_every_schedule_is_pinned():
    assert sorted(DIGESTS) == schedule_names()


@pytest.mark.parametrize("schedule", sorted(DIGESTS))
def test_chaos_payload_digest_is_pinned(schedule):
    payload = chaos_scenario({"schedule": schedule, "messages": 20}, 7)
    assert payload["invariants_ok"]
    assert canonical_digest(payload) == DIGESTS[schedule]
