"""Global switches for the single-simulation fast paths.

The IPC/network fast paths (packet free-list, message free-list, the
binding-cache route memo and memoized wire-cost functions) never change
a simulation's trajectory -- same seeds give the same simulated
times, event order and outcomes with every switch on or off.  The
switches exist so ``benchmarks/bench_simcore.py`` can A/B the wall-clock
cost of the plain code paths against the fast ones and *prove* the
trajectory identity, not so users can mix and match.  Coalesced receive
processing and the one-pass broadcast delivery are not switches: they
are the only receive path (see :mod:`repro.net.ethernet`).

Components read the switches once, at construction time (a per-packet
global load would itself be hot-path overhead), so toggling only affects
simulators built afterwards::

    from repro._fastpath import FASTPATH
    FASTPATH.set_all(False)   # build a cluster the PR 2 way
    ...
    FASTPATH.set_all(True)    # back to the default

A second switch block, :data:`COPY_PLANE`, governs the bulk-transfer
data-plane *modes* (burst pacing, adaptive pre-copy).  Those are not
trajectory-neutral -- they change which packets exist -- so they default
**off** and are opted into per run (benchmarks, ``--copy-plane`` chaos
campaigns).  ``FASTPATH.copy_runs`` -- extent-coalesced run descriptors
instead of per-page lists -- *is* trajectory-neutral and rides the
default-on block.

``FASTPATH.event_wheel`` selects the hybrid event core (now-queue +
timer wheel + overflow heap, see :class:`repro.sim.engine.WheelSimulator`)
when a ``Simulator`` is constructed.  It is trajectory-neutral -- pop
order is provably identical to the reference heap -- but being the
engine's foundation it is flipped *explicitly*, not by ``set_all``:
benchmarks that A/B the PR 2-era fast paths keep whichever event core
the run was started with.  It defaults off; set ``REPRO_EVENT_WHEEL=1``
in the environment (as one CI job does for the whole test suite) or
assign ``FASTPATH.event_wheel = True`` before building a simulator to
opt in.
"""

from __future__ import annotations

import os


def _env_flag(name: str, default: bool) -> bool:
    """Read a boolean toggle from the environment ("1"/"true" on)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() in ("1", "true", "yes", "on")


class FastPathFlags:
    """One boolean per independently toggleable fast path (default on).

    ``event_wheel`` is the exception: it picks the event core itself, is
    exempt from :meth:`set_all`, and defaults to the
    ``REPRO_EVENT_WHEEL`` environment toggle (off when unset).
    """

    __slots__ = (
        "packet_pool",
        "message_pool",
        "route_cache",
        "cost_memo",
        "copy_runs",
        "event_wheel",
    )

    #: Switches that set_all leaves alone (explicit opt-in only).
    _SET_ALL_EXEMPT = frozenset({"event_wheel"})

    def __init__(self) -> None:
        self.set_all(True)
        self.event_wheel = _env_flag("REPRO_EVENT_WHEEL", False)

    def set_all(self, enabled: bool) -> None:
        """Switch every fast path on or off at once (except the
        explicit-only event-core switch)."""
        for name in self.__slots__:
            if name not in self._SET_ALL_EXEMPT:
                setattr(self, name, enabled)

    def snapshot(self) -> dict:
        """Current switch positions (for benchmark payloads)."""
        return {name: getattr(self, name) for name in self.__slots__}


class PlacementFlags:
    """Switches for the placement plane (default OFF; see
    :mod:`repro.cluster.placement`).

    ``load_cache`` installs a per-host :class:`HostStateCache` daemon in
    ``build_cluster`` -- a TTL'd view of cluster load fed by piggy-backed
    digests on program-manager replies plus periodic anti-entropy
    probes.  The probes are real messages, so the knob changes the
    modelled trajectory (tolerance-diffed class, like COPY_PLANE).

    ``probe_placement`` makes ``@ *`` executions default to the
    :class:`RandomK` probing policy instead of the paper's multicast
    first-responder selection (it implies a usable cache: policies fall
    back to FirstResponder when no fresh view exists).  An explicit
    ``ExecSpec(policy=...)`` always wins over this knob.
    """

    __slots__ = (
        "load_cache",
        "probe_placement",
    )

    def __init__(self) -> None:
        self.set_all(False)

    def set_all(self, enabled: bool) -> None:
        """Switch every placement mode on or off at once."""
        for name in self.__slots__:
            setattr(self, name, enabled)

    def snapshot(self) -> dict:
        """Current switch positions (for benchmark payloads)."""
        return {name: getattr(self, name) for name in self.__slots__}


class CopyPlaneFlags:
    """Switches for the bulk-transfer data plane overhaul (default OFF).

    Unlike :data:`FASTPATH`, these change the *modelled* protocol, not
    just its wall-clock cost: ``burst_pacing`` streams K-page packet
    blasts (one frame and one pacing timer per burst instead of per
    page, V's 32 KB runs), and ``adaptive_precopy`` terminates pre-copy
    rounds on the observed dirty rate instead of static thresholds.
    Both therefore produce a *different* (still deterministic) simulated
    trajectory, so they default off; with every switch off the data
    plane is byte-identical to the per-page implementation.  Delivered
    page versions, invariant cleanliness and ``freeze_us`` accounting
    are preserved either way -- ``benchmarks/bench_simcore.py`` and the
    chaos campaign gate both positions.
    """

    __slots__ = (
        "burst_pacing",
        "adaptive_precopy",
    )

    def __init__(self) -> None:
        self.set_all(False)

    def set_all(self, enabled: bool) -> None:
        """Switch every copy-plane mode on or off at once."""
        for name in self.__slots__:
            setattr(self, name, enabled)

    def snapshot(self) -> dict:
        """Current switch positions (for benchmark payloads)."""
        return {name: getattr(self, name) for name in self.__slots__}


#: The process-wide switch block, consulted at component construction.
FASTPATH = FastPathFlags()

#: The copy data-plane switch block (default off; see CopyPlaneFlags).
COPY_PLANE = CopyPlaneFlags()

#: The placement-plane switch block (default off; see PlacementFlags).
PLACEMENT = PlacementFlags()


def knob_domains() -> dict:
    """Every toggleable knob name -> its switch block ("fastpath",
    "copy_plane" or "placement"), the single source of truth the
    differential verification matrix (:mod:`repro.verify`) builds toggle
    vectors from.  ``fastpath`` knobs are trajectory-preserving
    (byte-identical equivalence class); ``copy_plane`` and ``placement``
    knobs change the modelled trajectory (tolerance-diffed class)."""
    domains = {name: "fastpath" for name in FastPathFlags.__slots__}
    domains.update({name: "copy_plane" for name in CopyPlaneFlags.__slots__})
    domains.update({name: "placement" for name in PlacementFlags.__slots__})
    return domains


def knob_block(domain: str):
    """The switch-block singleton for a knob domain name."""
    return {"fastpath": FASTPATH, "copy_plane": COPY_PLANE,
            "placement": PLACEMENT}[domain]


def knob_default(name: str) -> bool:
    """The *canonical* default position of a knob: fastpath on,
    copy-plane off, placement off, ``event_wheel`` off.

    Deliberately ignores ``REPRO_EVENT_WHEEL``: the verification matrix
    (:mod:`repro.verify`) anchors its baseline here, and the baseline
    must mean the same cell in every environment -- otherwise forcing
    the wheel on via the environment would fold the heap-vs-wheel
    differential axis into a point and differences between the cores
    (e.g. a planted mutation) would become invisible."""
    if name in CopyPlaneFlags.__slots__ or name in PlacementFlags.__slots__:
        return False
    if name == "event_wheel":
        return False
    return True
