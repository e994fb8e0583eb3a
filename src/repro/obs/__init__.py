"""Unified observability: metrics registry, span tracing, timeline export.

Three pillars, all honoring the simulator's zero-cost-when-off
discipline (one attribute load and one branch on a disabled path):

* :class:`MetricsRegistry` -- typed counters, gauges and fixed-bucket
  histograms, attached to each :class:`~repro.sim.engine.Simulator` as
  ``sim.metrics``.  Instrumented per host and aggregatable across the
  cluster; snapshot-able mid-run; exportable as JSON or a text table.
* Span tracing lives in :class:`~repro.sim.trace.Tracer` (``begin_span``
  / ``end_span``): causal trees over simulated time, e.g. a migration's
  precopy -> freeze -> residual chain.
* :mod:`repro.obs.timeline` serializes spans and instant events to
  Chrome/Perfetto ``trace_event`` JSON, and
  :class:`~repro.obs.profiler.SelfProfiler` reports the simulator's own
  wall-clock overhead per event category.

On top of the pillars sits the analysis layer (all post-hoc, nothing on
any hot path):

* :mod:`repro.obs.critical_path` -- span self-times, per-subsystem
  profiles and critical-path extraction from recorded span trees.
* :mod:`repro.obs.report` -- versioned RunReport JSON artifacts (config
  + metrics + span profile + KPIs) for any run.
* :mod:`repro.obs.diff` -- report-vs-report deltas with tolerances and
  per-subsystem time attribution.
* :mod:`repro.obs.flight_recorder` -- postmortem bundles dumped when an
  invariant fires, loadable for offline replay.
"""

from repro.obs.critical_path import (
    critical_path,
    phase_breakdown,
    render_breakdown,
    render_profile,
    self_time_us,
    span_profile,
)
from repro.obs.diff import diff_reports, render_diff, subsystem_of
from repro.obs.flight_recorder import FlightRecorder, load_postmortem
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_US,
    MetricsRegistry,
    SIZE_BUCKETS_BYTES,
)
from repro.obs.profiler import SelfProfiler
from repro.obs.report import (
    RUN_REPORT_VERSION,
    build_migration_report,
    load_report,
    new_report,
    render_report,
    sweep_run_report,
    write_report,
)
from repro.obs.timeline import chrome_trace_events, export_timeline

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_US",
    "SIZE_BUCKETS_BYTES",
    "MetricsRegistry",
    "SelfProfiler",
    "chrome_trace_events",
    "export_timeline",
    "critical_path",
    "phase_breakdown",
    "render_breakdown",
    "render_profile",
    "self_time_us",
    "span_profile",
    "RUN_REPORT_VERSION",
    "build_migration_report",
    "load_report",
    "new_report",
    "render_report",
    "sweep_run_report",
    "write_report",
    "diff_reports",
    "render_diff",
    "subsystem_of",
    "FlightRecorder",
    "load_postmortem",
]
