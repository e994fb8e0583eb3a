"""Flight recorder: postmortem bundles for failed runs.

When an invariant fires mid-campaign, the interesting state is gone by
the time a human looks -- the ring buffer has wrapped, the metrics have
moved on, the seed is buried in a sweep grid.  A :class:`FlightRecorder`
attached to an :class:`~repro.faults.invariants.InvariantChecker`
freezes that state the instant the *first* violation is recorded:

* ``manifest.json`` -- bundle version, the reason, sim time, the
  cluster model's copy-plane modes and the caller-supplied context
  (scenario name, schedule, seed, config) -- everything needed to
  re-run the exact failing unit offline;
* ``trace.json`` -- the tail of the span/record ring in Chrome
  ``chrome://tracing`` format (the same payload ``repro trace`` emits);
* ``metrics.json`` -- the metrics snapshot at the moment of death;
* ``invariants.json`` -- the checker's summary plus every violation
  with its ``at_us`` and structured detail.

Zero-cost discipline: a checker with no recorder attached pays one
``is not None`` test per violation -- i.e. nothing at all on clean
runs, since ``_violate`` only runs when an invariant already fired.

:func:`load_postmortem` reads a bundle back as one dict for offline
analysis and the regression tests.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace
from typing import Any, Dict, Optional, Sequence

from repro.config import DEFAULT_MODEL
from repro.errors import SimulationError

#: Bumped whenever the bundle layout changes incompatibly.
BUNDLE_VERSION = 1

#: Bundle file names, in manifest order.
BUNDLE_FILES = ("manifest.json", "trace.json", "metrics.json",
                "invariants.json")


class FlightRecorder:
    """Dumps a postmortem bundle the first time an invariant fires.

    Attach with :meth:`attach`; the checker calls :meth:`on_violation`
    from ``_violate`` after recording the violation (and before a
    strict checker raises), so the bundle always exists by the time the
    exception propagates.
    """

    def __init__(
        self,
        out_dir: str,
        *,
        sim=None,
        cluster=None,
        context: Optional[Dict[str, Any]] = None,
        mutations: Sequence[str] = (),
        max_trace_events: int = 4096,
    ):
        self.out_dir = out_dir
        self.sim = sim if sim is not None else (
            cluster.sim if cluster is not None else None
        )
        #: The hardware model the run was built with (its copy-plane
        #: modes go into the manifest).
        self.model = cluster.model if cluster is not None else DEFAULT_MODEL
        #: Arbitrary JSON-able context (scenario, schedule, seed, config)
        #: copied verbatim into the manifest for offline replay.
        self.context = dict(context or {})
        #: Planted mutations (repro.verify.mutation) the run's cluster
        #: was built with: a bundle produced by a mutation-smoke run must
        #: say so, or its trajectory looks like a real engine bug.
        self.mutations = list(mutations)
        self.max_trace_events = max_trace_events
        #: Path of the bundle written by the first violation, if any.
        self.dumped: Optional[str] = None

    def attach(self, checker) -> "FlightRecorder":
        """Wire this recorder into an invariant checker."""
        checker.flight_recorder = self
        return self

    def on_violation(self, checker) -> None:
        """First violation wins; later ones land in ``invariants.json``
        of their own run only if they fired before this call."""
        if self.dumped is None:
            self.dump(reason="invariant-violation", checker=checker)

    # ----------------------------------------------------------- dumping

    def dump(self, reason: str, checker=None) -> str:
        """Write the bundle now (also usable for manual snapshots);
        returns the bundle directory."""
        os.makedirs(self.out_dir, exist_ok=True)
        sim = self.sim

        manifest: Dict[str, Any] = {
            "bundle_version": BUNDLE_VERSION,
            "reason": reason,
            "context": self.context,
            "sim_time_us": sim.now if sim is not None else None,
            "toggles": {
                "copy_plane": self.model.copy_plane_modes(),
            },
            "mutations": self.mutations,
            "files": list(BUNDLE_FILES),
        }
        self._write("manifest.json", manifest)

        trace_payload: Dict[str, Any] = {"traceEvents": []}
        if sim is not None and sim.trace.spans:
            from repro.obs.timeline import chrome_trace_events

            n = self.max_trace_events
            # A frozen tail view of the ring: chrome_trace_events only
            # touches .spans and .records.
            tail = SimpleNamespace(
                spans=list(sim.trace.spans)[-n:],
                records=list(sim.trace.records)[-n:],
            )
            trace_payload = {"traceEvents": chrome_trace_events(tail)}
        self._write("trace.json", trace_payload)

        metrics = sim.metrics.snapshot() if sim is not None else {}
        self._write("metrics.json", metrics)

        inv: Dict[str, Any] = {"summary": {}, "ok": True, "violations": []}
        if checker is not None:
            inv = {
                "summary": checker.summary(),
                "ok": checker.ok,
                "violations": [
                    {
                        "invariant": v.invariant,
                        "message": str(v),
                        "at_us": v.at_us,
                        "detail": _jsonable(v.detail),
                    }
                    for v in checker.violations
                ],
            }
        self._write("invariants.json", inv)

        self.dumped = self.out_dir
        return self.out_dir

    def _write(self, name: str, payload: Any) -> None:
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")


def _jsonable(value):
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        if isinstance(value, dict):
            return {str(k): _jsonable(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [_jsonable(v) for v in value]
        return str(value)


def load_postmortem(bundle_dir: str) -> Dict[str, Any]:
    """Read a bundle back as ``{"manifest", "trace", "metrics",
    "invariants"}``; raises :class:`SimulationError` for missing or
    unreadable bundles."""
    manifest_path = os.path.join(bundle_dir, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise SimulationError(
            f"{bundle_dir!r} is not a postmortem bundle (no manifest.json)"
        )
    out: Dict[str, Any] = {}
    for name in BUNDLE_FILES:
        path = os.path.join(bundle_dir, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                out[name.rsplit(".", 1)[0]] = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SimulationError(
                f"postmortem bundle {bundle_dir!r}: cannot read "
                f"{name}: {exc}"
            )
    version = out["manifest"].get("bundle_version")
    if not isinstance(version, int) or version > BUNDLE_VERSION:
        raise SimulationError(
            f"postmortem bundle {bundle_dir!r} has version {version!r}; "
            f"this build understands <= {BUNDLE_VERSION}"
        )
    return out
