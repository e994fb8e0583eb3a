"""Paper-vs-measured experiment reports for the E-series benchmarks."""

from repro.metrics.report import (
    REGISTRY,
    ExperimentReport,
    ReportRow,
    register,
    render_all,
)

__all__ = [
    "ExperimentReport",
    "ReportRow",
    "REGISTRY",
    "register",
    "render_all",
]
