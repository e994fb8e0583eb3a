"""The always-on invariant harness.

An :class:`InvariantChecker` installed on a simulator
(``checker.install(sim)``) verifies, throughout a run, the four
properties the paper's correctness argument rests on:

``at-most-once``
    No request is delivered to an application twice.  The transport
    reports every application-level delivery (the single
    ``mark_received`` chokepoint) keyed ``(sender, seq, recipient)``;
    a second delivery of the same key is a protocol violation no matter
    how many duplicates, retransmissions or migrations happened.

``single-execution``
    No logical host is *runnable* (unfrozen, with live processes) on
    two physical hosts at once.  During a migration's commit window the
    same lhid legitimately exists on both machines -- but the source
    copy is frozen; two runnable copies would mean the program executes
    twice.  Checked by a structural scan of every machine, triggered by
    the transitions that can make a logical host runnable (see
    :meth:`InvariantChecker.note_runnable`).

``page-version-monotonicity``
    Page versions observed by successive pre-copy rounds never
    decrease.  A version going backwards means a round copied stale
    data over fresher data and the destination image can be wrong.

``no-residual-dependency``
    After a migration commits (the source copy is destroyed), traffic
    addressed to the migrated logical host stops arriving at the old
    host once the rebind grace window -- enough for every stale sender
    to be NAKed and re-resolve -- has passed.  Stale requests beyond
    the window mean some sender still *depends* on the old host, which
    is exactly what §3.1.4's lazy rebinding must prevent.

Cost discipline: a simulator with no checker installed pays one
attribute load + branch per event (like ``Tracer.active``); the
``invariant_overhead`` case in ``benchmarks/bench_simcore.py`` holds
the disabled path to <=1.05x on the migration storm.  An installed
checker still sees every event (``events_checked``), but rescans the
machines only when a logical host may have become runnable since the
last clean scan.  Three kernel transitions can do that, and each calls
:meth:`~InvariantChecker.note_runnable`: a process joining a logical
host (``LogicalHost.add_process``), an unfreeze, and an lhid change.
Every other transition -- freeze, process exit or destroy, logical-host
destroy, crash -- can only end runnability, so it cannot create a
second runnable copy.  A scan that finds a violation leaves the scan
armed, so a violation that persists is reported on every event.  The
enabled checker costs O(1) per event between transitions (the same
bench case holds it to <=3x on the storm).

``strict=True`` (the default, for tests) raises
:class:`~repro.errors.InvariantViolation` at the first breach;
``strict=False`` (campaigns) records every breach in
:attr:`violations` and lets the run complete so the verdict table can
report them all.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from repro.errors import InvariantViolation

#: The four invariant names, in report order.
INVARIANTS = (
    "at-most-once",
    "single-execution",
    "page-version-monotonicity",
    "no-residual-dependency",
)


class InvariantChecker:
    """Watches a simulated cluster for protocol-invariant violations."""

    def __init__(
        self,
        cluster=None,
        strict: bool = True,
        grace_us: Optional[int] = None,
    ):
        #: The cluster under observation (read each check, so machines
        #: replaced by ``reboot_workstation`` are picked up); tests that
        #: exercise hooks directly may leave it None.
        self.cluster = cluster
        self.strict = strict
        #: Post-commit window in which stale traffic to the old host is
        #: tolerated (cache invalidation + one broadcast re-resolution).
        if grace_us is None and cluster is not None:
            model = cluster.model
            grace_us = (
                2 * (model.max_retransmissions + 1)
                * model.retransmit_interval_us
            )
        self.grace_us = grace_us if grace_us is not None else 2_400_000
        #: Whether a logical host may have become runnable since the
        #: last clean single-execution scan (armed at install, so the
        #: first event scans whatever already exists).
        self._scan_armed = True
        self.violations: List[InvariantViolation] = []
        #: Optional :class:`~repro.obs.flight_recorder.FlightRecorder`;
        #: when set, the first violation dumps a postmortem bundle
        #: before a strict checker raises.  One ``is not None`` test per
        #: violation -- clean runs never touch it.
        self.flight_recorder = None
        #: Events the harness has inspected (campaign accounting).
        self.events_checked = 0
        self.deliveries_checked = 0
        # -- at-most-once
        self._delivered: Dict[Tuple, int] = {}
        # -- no-residual-dependency: lhid -> (commit time, old host)
        self._commits: Dict[int, Tuple[int, str]] = {}
        # -- page-version-monotonicity: space -> {page index: version}.
        # Weakly keyed so a freed space's records go with it (an id()
        # key would be reused by the next space allocated).
        self._page_versions = weakref.WeakKeyDictionary()

    # -------------------------------------------------------------- install

    def install(self, sim) -> "InvariantChecker":
        """Attach to a simulator; returns self for chaining."""
        sim.invariants = self
        return self

    # ------------------------------------------------------------ reporting

    def _violate(self, invariant: str, message: str, at_us: int,
                 **detail) -> None:
        violation = InvariantViolation(
            f"[{invariant}] {message}", invariant=invariant,
            at_us=at_us, detail=detail,
        )
        self.violations.append(violation)
        if self.flight_recorder is not None:
            self.flight_recorder.on_violation(self)
        if self.strict:
            raise violation

    def summary(self) -> Dict[str, int]:
        """Violation counts per invariant (all four keys, zeros kept)."""
        out = {name: 0 for name in INVARIANTS}
        for violation in self.violations:
            out[violation.invariant] = out.get(violation.invariant, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    # ----------------------------------------------------- transport hooks

    def note_request_delivered(self, sender, seq: int, recipient) -> None:
        """The application performed the Receive for this request
        (called from the transport/scheduler ``mark_received`` sites)."""
        self.deliveries_checked += 1
        key = (sender, seq, recipient)
        count = self._delivered.get(key, 0) + 1
        self._delivered[key] = count
        if count > 1:
            self._violate(
                "at-most-once",
                f"request ({sender}, seq {seq}) delivered to {recipient} "
                f"{count} times",
                at_us=0,
                sender=str(sender), seq=seq, recipient=str(recipient),
                count=count,
            )

    def note_stale_request(self, lhid: int, host: str, now: int) -> None:
        """A host that no longer hosts ``lhid`` received a request for
        it (the transport is about to NAK-moved)."""
        commit = self._commits.get(lhid)
        if commit is None:
            return  # pre-migration churn (boot, reboot) is not residual
        committed_at, old_host = commit
        if host == old_host and now > committed_at + self.grace_us:
            self._violate(
                "no-residual-dependency",
                f"lhid {lhid} still receiving traffic at {host} "
                f"{(now - committed_at) / 1000:.0f} ms after commit",
                at_us=now, lhid=lhid, host=host,
                committed_at=committed_at,
            )

    # ----------------------------------------------------- migration hooks

    def note_migration_commit(self, lhid: int, old_host: str, now: int) -> None:
        """A migration completed: the source copy of ``lhid`` at
        ``old_host`` was destroyed and the destination is authoritative."""
        self._commits[lhid] = (now, old_host)

    def note_page_versions(self, space, pages) -> None:
        """A pre-copy (or residual) round is about to copy ``pages``
        out of ``space``; versions must never move backwards between
        observations."""
        seen = self._page_versions.get(space)
        if seen is None:
            seen = self._page_versions[space] = {}
        for page in pages:
            key = page.index
            version = page.version
            last = seen.get(key)
            if last is not None and version < last:
                self._violate(
                    "page-version-monotonicity",
                    f"page {page.index} of {space.name!r} went from "
                    f"v{last} back to v{version}",
                    at_us=0, space=space.name, page=page.index,
                    was=last, now_version=version,
                )
            seen[key] = version

    # ---------------------------------------------------- kernel transitions

    def note_runnable(self) -> None:
        """Some logical host may have become runnable (a process joined
        it, it was unfrozen, or it changed lhid): re-arm the scan."""
        self._scan_armed = True

    # ------------------------------------------------------ per-event scan

    def after_event(self, sim) -> None:
        """Run by the simulator after every event.  When a transition
        has armed it, scans every machine for two runnable copies of one
        lhid; a clean scan disarms it, a violation keeps it armed."""
        self.events_checked += 1
        if not self._scan_armed:
            return
        cluster = self.cluster
        if cluster is None:
            return
        clean = True
        runnable_at: Dict[int, str] = {}
        for station in cluster.workstations + cluster.server_machines:
            kernel = station.kernel
            if not kernel.alive:
                continue
            for lhid, lh in kernel.logical_hosts.items():
                if lh.frozen or not lh.has_live_process():
                    continue
                other = runnable_at.get(lhid)
                if other is not None:
                    clean = False
                    self._violate(
                        "single-execution",
                        f"lhid {lhid} runnable on both {other} and "
                        f"{kernel.name}",
                        at_us=sim.now, lhid=lhid,
                        hosts=[other, kernel.name],
                    )
                else:
                    runnable_at[lhid] = kernel.name
        self._scan_armed = not clean
