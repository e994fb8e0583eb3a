"""Host selection for ``@ *`` execution: the paper's multicast and
power-of-d probing.

The paper selects execution hosts with one multicast candidate query
answered by the first willing responder (§2.1, §4).  That is exact, but
every ``@ *`` exec reaches every program manager, so selection traffic
grows with the cluster.  Two policies share one client loop
(:func:`repro.execution.api.exec_program`):

* :class:`FirstResponder` -- the paper's multicast, the default.
* :class:`RandomK` -- power-of-d choices: sample ``k`` hosts from the
  live program-manager roster, probe each one's load with a unicast
  ``probe-load``, and place on the least-loaded willing host -- O(k)
  messages.  When no probed host is willing it falls back to the
  multicast, so placement always ends with the §4 semantics.

No policy keeps a view of cluster load between execs: every answer is
live.  A probed answer can still go stale before ``create-program``
arrives, so RandomK's requests carry an admission check: the target
re-validates willingness and politely declines (``exec-declined``)
instead of failing, and the client retries elsewhere under a bounded
backoff budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import NoSuchProcessError, SendTimeoutError
from repro.ipc.messages import Message
from repro.kernel.ids import Pid
from repro.kernel.process import Send


@dataclass(frozen=True)
class HostDigest:
    """One host's load as a ``probe-load`` reply reports it (see
    :meth:`repro.services.program_manager.ProgramManager.load_digest`)."""

    host: str
    pm: Pid
    load: int
    remote: int
    memory_free: int
    ts_us: int

    @classmethod
    def from_fields(cls, fields: Dict) -> Optional["HostDigest"]:
        """Build from a message's ``digest`` dict; None if malformed."""
        try:
            return cls(
                host=fields["host"], pm=fields["pm"],
                load=int(fields["load"]), remote=int(fields.get("remote", 0)),
                memory_free=int(fields["memory_free"]),
                ts_us=int(fields["ts"]),
            )
        except (KeyError, TypeError, ValueError):
            return None


def _fit_key(d: HostDigest):
    """Total order for 'best' host: load asc, free memory desc, name."""
    return (d.load, -d.memory_free, d.host)


# ------------------------------------------------------------------ policies

@dataclass(frozen=True)
class Selection:
    """A placement decision: the manager to ask, and (when a probe or
    reply named it) which host it runs on."""

    pm: Pid
    host: Optional[str] = None


def _multicast(spec):
    """The §4 candidate query: the first willing responder's manager."""
    from repro.execution.api import select_candidate_host

    candidate = yield from select_candidate_host(spec.memory_needed)
    return Selection(pm=candidate["pm"], host=candidate.get("host"))


class PlacementPolicy:
    """How ``@ *`` picks a host.  Policies are generator-based (they may
    send probe messages) and stateless across calls except for their
    seeded random stream, so they are safe to share between specs.

    ``admission=True`` policies place on a probed answer that may be
    stale by the time the host is asked to create the program, so their
    ``create-program`` requests carry an admission check: the target
    re-validates willingness and politely declines instead of failing.
    """

    name = "policy"
    admission = False

    def select(self, ctx, spec, attempt: int, exclude):
        """Pick a program manager (generator -> Selection or None)."""
        raise NotImplementedError
        yield  # pragma: no cover - generator marker

    def should_retry(self, spec, reply: Message, attempt: int) -> bool:
        """Whether a failed/declined creation is worth another attempt."""
        return reply.kind == "exec-declined" or (
            "bytes requested" in reply.get("error", ""))

    def backoff_us(self, attempt: int) -> int:
        """Delay before retry ``attempt + 1`` (0 = retry immediately)."""
        return 0


class FirstResponder(PlacementPolicy):
    """The paper's §4 selection: multicast a candidate query to the
    program-manager group, take whoever answers first.  This is the
    default ``ExecSpec(where="*")`` policy."""

    name = "first_responder"
    admission = False

    def select(self, ctx, spec, attempt: int, exclude):
        return (yield from _multicast(spec))

    def should_retry(self, spec, reply: Message, attempt: int) -> bool:
        # Candidate answers are optimistic: by creation time the winner
        # may have filled up.  Re-select and try elsewhere -- but only
        # for that race, exactly as the pre-placement client did.
        return "bytes requested" in reply.get("error", "")


class RandomK(PlacementPolicy):
    """Power-of-d-choices probing: sample ``k`` hosts from the live
    program-manager roster (``ctx.program_managers``), probe their load,
    and place on the least-loaded prober that is willing.

    O(k) selection messages instead of a cluster-wide multicast.  The
    roster is looked up at every probe, so a rebooted host's fresh
    manager is the one probed.  Falls back to the multicast when no
    probed host is willing (or the context carries no roster).
    """

    name = "random_k"
    admission = True

    def __init__(self, k: int = 3):
        self.k = k

    def _stream(self, ctx):
        """A seed-isolated stream per requesting process: parallel sweep
        coordinates must not share probe randomness."""
        return ctx.sim.rand.stream(f"placement.randomk.{ctx.self_pid}")

    def _fallback(self, ctx, spec):
        """Degrade to the paper's multicast first-responder selection."""
        m = ctx.sim.metrics if ctx.sim is not None else None
        if m is not None and m.active:
            m.counter("placement.fallbacks").inc()
        return (yield from _multicast(spec))

    def select(self, ctx, spec, attempt: int, exclude):
        roster = ctx.program_managers
        names = sorted(n for n in roster or () if n not in exclude)
        if not names or ctx.sim is None:
            return (yield from self._fallback(ctx, spec))
        if len(names) > self.k:
            names = self._stream(ctx).sample(names, self.k)
        m = ctx.sim.metrics
        best: Optional[HostDigest] = None
        for name in names:
            try:
                reply = yield Send(roster[name].pcb.pid, Message(
                    "probe-load", memory_needed=spec.memory_needed))
            except (SendTimeoutError, NoSuchProcessError):
                continue
            if m.active:
                m.counter("placement.probes").inc()
            live = HostDigest.from_fields(reply.get("digest") or {})
            if not reply.get("willing", False) or live is None:
                continue
            if best is None or _fit_key(live) < _fit_key(best):
                best = live
        if best is None:
            return (yield from self._fallback(ctx, spec))
        return Selection(pm=best.pm, host=best.host)

    def backoff_us(self, attempt: int) -> int:
        return 2_000 << attempt


#: Policy name -> class, for CLI/scenario config strings.
POLICIES = {
    FirstResponder.name: FirstResponder,
    RandomK.name: RandomK,
}


def make_policy(spec) -> PlacementPolicy:
    """Coerce a policy spec -- an instance, a class, a name from
    :data:`POLICIES`, or None for the paper's :class:`FirstResponder` --
    into a policy instance."""
    if spec is None:
        return FirstResponder()
    if isinstance(spec, PlacementPolicy):
        return spec
    if isinstance(spec, type) and issubclass(spec, PlacementPolicy):
        return spec()
    if isinstance(spec, str):
        cls = POLICIES.get(spec)
        if cls is None:
            raise ValueError(
                f"unknown placement policy {spec!r}; "
                f"known: {', '.join(sorted(POLICIES))}"
            )
        return cls()
    raise TypeError(f"not a placement policy: {spec!r}")
