"""Chrome/Perfetto ``trace_event`` export of a tracer's spans + records.

Open the emitted JSON in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``: one *process* track per workstation (spans and
records carry a ``host=`` data field; everything unattributed lands on a
``sim`` track), one *thread* lane per trace category, timestamps in
simulated microseconds.

Spans become complete events (``ph: "X"`` with ``ts``/``dur``); still
open spans are emitted as zero-duration instants so a truncated run
stays loadable.  Instant records become ``ph: "i"`` events.

Exports can be windowed with ``since_us``/``until_us``: a half-open
``[since_us, until_us)`` window keyed on a span's *start* time (a span
straddling the window edge belongs to the window it started in).
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Optional, Union

#: pid reserved for spans/records with no host attribution.
_SIM_PID = 1


def _host_pids(spans, records) -> Dict[str, int]:
    """Stable host -> Chrome pid mapping (sorted; pid 1 = unattributed)."""
    hosts = set()
    for span in spans:
        host = span.data.get("host")
        if host:
            hosts.add(str(host))
    for rec in records:
        host = rec.get("host")
        if host:
            hosts.add(str(host))
    return {host: _SIM_PID + 1 + i for i, host in enumerate(sorted(hosts))}


def _tid_map(spans, records) -> Dict[str, int]:
    """Stable category -> thread-lane mapping."""
    categories = sorted(
        {s.category for s in spans} | {r.category for r in records}
    )
    return {category: i + 1 for i, category in enumerate(categories)}


def chrome_trace_events(
    tracer,
    since_us: int = 0,
    until_us: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """The tracer's contents as a list of ``trace_event`` dicts,
    optionally restricted to the half-open window
    ``[since_us, until_us)`` (spans by start time, records by time)."""
    def in_window(t: int) -> bool:
        if t < since_us:
            return False
        if until_us is not None and t >= until_us:
            return False
        return True

    spans = [s for s in tracer.spans if in_window(s.start_us)]
    records = [r for r in tracer.records if in_window(r.time)]
    pids = _host_pids(spans, records)
    tids = _tid_map(spans, records)
    events: List[Dict[str, Any]] = []

    for host, pid in [("sim", _SIM_PID)] + sorted(pids.items(), key=lambda kv: kv[1]):
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": host},
        })
        for category, tid in sorted(tids.items(), key=lambda kv: kv[1]):
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": category},
            })

    for span in spans:
        host = span.data.get("host")
        pid = pids.get(str(host), _SIM_PID) if host else _SIM_PID
        args = {k: _jsonable(v) for k, v in span.data.items()}
        args["span_id"] = span.span_id
        if span.parent_id:
            args["parent_id"] = span.parent_id
        if span.end_us is None:
            events.append({
                "ph": "i", "s": "t", "name": f"{span.name} (open)",
                "cat": span.category, "ts": span.start_us,
                "pid": pid, "tid": tids[span.category], "args": args,
            })
        else:
            events.append({
                "ph": "X", "name": span.name, "cat": span.category,
                "ts": span.start_us, "dur": span.end_us - span.start_us,
                "pid": pid, "tid": tids[span.category], "args": args,
            })

    for rec in records:
        host = rec.get("host")
        pid = pids.get(str(host), _SIM_PID) if host else _SIM_PID
        events.append({
            "ph": "i", "s": "t", "name": rec.message, "cat": rec.category,
            "ts": rec.time, "pid": pid, "tid": tids[rec.category],
            "args": {k: _jsonable(v) for k, v in rec.data},
        })

    return events


def export_timeline(
    tracer,
    out: Optional[Union[str, IO[str]]] = None,
    metrics=None,
    since_us: int = 0,
    until_us: Optional[int] = None,
) -> Dict[str, Any]:
    """Build (and optionally write) the full Chrome trace payload.

    ``out`` may be a path or a writable text file.  When a
    :class:`~repro.obs.metrics.MetricsRegistry` is given, its snapshot is
    embedded under ``otherData`` so one file carries the whole picture.
    ``since_us``/``until_us`` window the exported events (half-open, as
    everywhere in the reporting layer).  Returns the payload dict either
    way.
    """
    payload: Dict[str, Any] = {
        "traceEvents": chrome_trace_events(tracer, since_us, until_us),
        "displayTimeUnit": "ms",
    }
    if metrics is not None:
        payload["otherData"] = {"metrics": metrics.snapshot()}
    if out is not None:
        if hasattr(out, "write"):
            json.dump(payload, out, indent=1)
        else:
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=1)
    return payload


def _jsonable(value: Any) -> Any:
    """Coerce trace data fields to JSON-safe values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
