"""Deterministic fault injection and the always-on invariant harness.

* :mod:`repro.faults.models` -- composable per-delivery fault models
  (drop, burst loss, duplication, reordering, corruption) pipelined by a
  :class:`FaultPlane` installed on the Ethernet, each drawing from its
  own named RNG stream;
* :mod:`repro.faults.schedule` -- timed host crash-and-reboot and NIC
  outage schedules;
* :mod:`repro.faults.invariants` -- the :class:`InvariantChecker` that
  verifies the paper's four correctness properties after every simulated
  event;
* :mod:`repro.faults.campaign` -- the ``python -m repro chaos``
  campaign: fault schedules × seeds on the :mod:`repro.parallel` sweep
  engine, with a deterministic verdict table, and its differential
  pass over same-instant tie orders;
* :mod:`repro.faults.perturb` -- the :class:`TiePerturber` that
  permutes those ties.
"""

from repro.faults.campaign import (
    FAULT_SCHEDULES,
    build_fault_plane,
    campaign_ok,
    campaign_spec,
    canonical_digest,
    differential_pass,
    pass_table,
    replay_failing_run,
    run_campaign,
    schedule_names,
    verdict_table,
)
from repro.faults.invariants import INVARIANTS, InvariantChecker
from repro.faults.models import (
    BurstDropFault,
    CorruptFault,
    DeliveryPlan,
    DropFault,
    DuplicateFault,
    FaultModel,
    FaultPlane,
    LossAdapter,
    ReorderFault,
)
from repro.faults.perturb import TiePerturber
from repro.faults.schedule import (
    CrashEvent,
    CrashSchedule,
    OutageEvent,
    OutageSchedule,
)

__all__ = [
    "FAULT_SCHEDULES",
    "INVARIANTS",
    "BurstDropFault",
    "CorruptFault",
    "CrashEvent",
    "CrashSchedule",
    "DeliveryPlan",
    "DropFault",
    "DuplicateFault",
    "FaultModel",
    "FaultPlane",
    "InvariantChecker",
    "LossAdapter",
    "OutageEvent",
    "OutageSchedule",
    "ReorderFault",
    "TiePerturber",
    "build_fault_plane",
    "campaign_ok",
    "campaign_spec",
    "canonical_digest",
    "differential_pass",
    "pass_table",
    "replay_failing_run",
    "run_campaign",
    "schedule_names",
    "verdict_table",
]
