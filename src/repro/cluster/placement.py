"""The placement plane: cached host selection and pluggable policies.

The paper selects execution hosts with one multicast candidate query
answered by the first idle responder (§4).  That is exact but expensive:
every ``@ *`` exec storms the whole program-manager group, so selection
traffic grows with the cluster.  This module adds the scalable
alternative on top of the same public facilities:

* :class:`HostStateCache` -- a per-workstation daemon keeping a TTL'd
  view of cluster load.  It is fed two ways: *piggy-backed* load digests
  that program managers attach to the replies they already send
  (weightless on the simulated wire, so always on), and periodic
  *anti-entropy* ``probe-load`` refreshes of the stalest entries (real
  messages, so installed only by ``build_cluster(placement=True)``).

* Pluggable placement policies for ``@ *`` execution:
  :class:`FirstResponder` (the paper's multicast, byte-identical default),
  :class:`RandomK` (power-of-d-choices: probe ``k`` cached-idle hosts,
  place on the least loaded prober that accepts -- O(k) messages), and
  :class:`CachedBestFit` (no probes at all: trust the cached view, let
  admission control catch staleness).

Every policy degrades to the paper's multicast when the cached view is
empty or stale, so placement always terminates with the §4 semantics.
Stale-view declines are handled by admission control in the client loop
(:func:`repro.execution.api.exec_program`): a ``create-program`` carrying
``admission=True`` is re-checked against the host's accept policy and
politely declined (with a fresh digest) instead of failing, and the
client retries elsewhere under a bounded backoff budget.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import NoSuchProcessError, SendTimeoutError
from repro.ipc.messages import Message
from repro.kernel.ids import Pid
from repro.kernel.process import Delay, GetReplies, Pcb, Send
from repro.services.service import install_service

#: How long a cached digest counts as fresh (simulated µs).
DEFAULT_TTL_US = 2_000_000

#: Anti-entropy period of the cache daemon (simulated µs).
DEFAULT_REFRESH_US = 1_000_000

#: How many stale entries one anti-entropy round refreshes.
DEFAULT_REFRESH_FANOUT = 2

#: A host with fewer program processes than this counts as "idle" for
#: probe-candidate selection (matches AcceptPolicy.max_program_processes).
DEFAULT_IDLE_LOAD = 3


@dataclass(frozen=True)
class HostDigest:
    """One host's load summary as last heard (the piggy-backed unit)."""

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


@dataclass
class CacheStats:
    """What one host-state cache observed and did."""

    observations: int = 0
    refreshes: int = 0
    refresh_failures: int = 0
    drops: int = 0


class HostStateCache:
    """A slightly-stale, TTL'd view of every workstation's load.

    Purely passive state plus one daemon process: :meth:`observe` folds
    in digests piggy-backed on replies the caller already received (no
    traffic of its own), and :meth:`body` is the anti-entropy loop that
    keeps the view from decaying when nobody happens to be execing.
    """

    def __init__(
        self,
        cluster,
        owner_host: str,
        ttl_us: int = DEFAULT_TTL_US,
        refresh_interval_us: int = DEFAULT_REFRESH_US,
        refresh_fanout: int = DEFAULT_REFRESH_FANOUT,
    ):
        self.cluster = cluster
        self.owner_host = owner_host
        self.ttl_us = ttl_us
        self.refresh_interval_us = refresh_interval_us
        self.refresh_fanout = refresh_fanout
        self.sim = cluster.sim
        self.entries: Dict[str, HostDigest] = {}
        self.stats = CacheStats()
        self.pcb: Optional[Pcb] = None
        self._running = True
        self._m_obs = self.sim.metrics.counter(
            "placement.cache.observations", owner_host)
        self._m_refresh = self.sim.metrics.counter(
            "placement.cache.refreshes", owner_host)

    # ----------------------------------------------------------- passive side

    def observe(self, digest: Optional[HostDigest]) -> None:
        """Fold one digest into the view (newest timestamp wins)."""
        if digest is None:
            return
        current = self.entries.get(digest.host)
        if current is not None and current.ts_us > digest.ts_us:
            return
        self.entries[digest.host] = digest
        self.stats.observations += 1
        if self.sim.metrics.active:
            self._m_obs.inc()

    def observe_reply(self, msg: Message) -> None:
        """Fold in the digest piggy-backed on a reply, if any."""
        fields = msg.get("digest")
        if fields:
            self.observe(HostDigest.from_fields(fields))

    def drop(self, host: str) -> None:
        """Forget a host (it stopped answering)."""
        if self.entries.pop(host, None) is not None:
            self.stats.drops += 1

    # ------------------------------------------------------------- view side

    def fresh_entries(self, now: Optional[int] = None) -> List[HostDigest]:
        """All entries within TTL, sorted by host name."""
        now = self.sim.now if now is None else now
        horizon = now - self.ttl_us
        return [d for _, d in sorted(self.entries.items())
                if d.ts_us >= horizon]

    def fresh_digest(self, host: str,
                     now: Optional[int] = None) -> Optional[HostDigest]:
        """The entry for ``host`` if it is still fresh, else None."""
        now = self.sim.now if now is None else now
        d = self.entries.get(host)
        if d is None or d.ts_us < now - self.ttl_us:
            return None
        return d

    def idle_hosts(self, now: Optional[int] = None,
                   idle_load: int = DEFAULT_IDLE_LOAD) -> List[HostDigest]:
        """Fresh entries that look like they would accept work."""
        return [d for d in self.fresh_entries(now) if d.load < idle_load]

    def best_fit(self, now: Optional[int] = None,
                 exclude: Tuple[str, ...] = ()) -> Optional[HostDigest]:
        """The best-looking fresh host: least loaded, then most free
        memory, then name (a total order, so deterministic)."""
        candidates = [d for d in self.fresh_entries(now)
                      if d.host not in exclude]
        if not candidates:
            return None
        return min(candidates, key=_fit_key)

    # ------------------------------------------------------------ daemon side

    def stop(self) -> None:
        """Ask the anti-entropy daemon to exit after the current round."""
        self._running = False

    def _roster(self) -> Dict[str, Pid]:
        """Live program managers by host, re-resolved every round so a
        rebooted workstation's fresh manager is probed, not its ghost."""
        return {name: pm.pcb.pid
                for name, pm in self.cluster.program_managers.items()}

    def _stalest(self, roster: Dict[str, Pid]) -> List[Tuple[str, Pid]]:
        """The ``refresh_fanout`` hosts we know least about (unknown
        hosts first, then oldest timestamp; name breaks ties)."""
        def age_key(item):
            name, _ = item
            d = self.entries.get(name)
            return (0 if d is None else 1, d.ts_us if d else 0, name)

        # The key is a total order (names are unique), so this equals
        # sorted(...)[:refresh_fanout] without sorting the whole roster.
        return heapq.nsmallest(self.refresh_fanout, roster.items(), key=age_key)

    def body(self):
        """Anti-entropy loop: periodically probe the stalest hosts."""
        while self._running:
            yield Delay(self.refresh_interval_us)
            if not self._running:
                return
            roster = self._roster()
            for name, pm_pid in self._stalest(roster):
                try:
                    reply = yield Send(
                        pm_pid, Message("probe-load", refresh=True))
                except (SendTimeoutError, NoSuchProcessError):
                    self.stats.refresh_failures += 1
                    self.drop(name)
                    continue
                self.stats.refreshes += 1
                if self.sim.metrics.active:
                    self._m_refresh.inc()
                self.observe_reply(reply)


def _fit_key(d: HostDigest):
    """Total order for 'best' host: load asc, free memory desc, name."""
    return (d.load, -d.memory_free, d.host)


def install_host_state_cache(cluster, workstation,
                             **kwargs) -> HostStateCache:
    """Run a host-state cache daemon on ``workstation``."""
    cache = HostStateCache(cluster, workstation.name, **kwargs)
    cache.pcb = install_service(
        workstation, cache.body(), f"loadcache@{workstation.name}",
    )
    return cache


# ------------------------------------------------------------------ policies

@dataclass(frozen=True)
class Selection:
    """A placement decision: the manager to ask, and (when known from
    the cached view rather than a reply) which host it runs on."""

    pm: Pid
    host: Optional[str] = None


class PlacementPolicy:
    """How ``@ *`` picks a host.  Policies are generator-based (they may
    send probe messages) and stateless across calls except for their
    seeded random stream, so they are safe to share between specs.

    ``admission=True`` policies place on a *cached* belief rather than a
    fresh reply, so their ``create-program`` requests carry an admission
    check: the target re-validates willingness and politely declines
    stale-view placements instead of failing them.
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

    def _fallback(self, ctx, spec):
        """Degrade to the paper's multicast first-responder selection.

        One multicast makes every willing host answer, and the kernel
        retains the straggler replies (V's GetReply facility) -- so a
        single cold-start fallback warms the whole cached view for free
        instead of wasting the cluster-wide query on one answer.
        """
        from repro.execution.api import select_candidate_host

        m = ctx.sim.metrics if ctx.sim is not None else None
        if m is not None and m.active:
            m.counter("placement.fallbacks").inc()
        candidate = yield from select_candidate_host(spec.memory_needed)
        cache = ctx.host_cache
        if cache is not None:
            cache.observe_reply(candidate)
            stragglers = yield GetReplies()
            for _replier, msg in stragglers:
                cache.observe_reply(msg)
        return Selection(pm=candidate["pm"], host=candidate.get("host"))


class FirstResponder(PlacementPolicy):
    """The paper's §4 selection: multicast a candidate query to the
    program-manager group, take whoever answers first.  This is the
    default and its trajectory is byte-identical to the pre-placement
    client (proved by the verify matrix's baseline cell)."""

    name = "first_responder"
    admission = False

    def select(self, ctx, spec, attempt: int, exclude):
        from repro.execution.api import select_candidate_host

        candidate = yield from select_candidate_host(spec.memory_needed)
        if ctx.host_cache is not None:
            ctx.host_cache.observe_reply(candidate)
        return Selection(pm=candidate["pm"], host=candidate.get("host"))

    def should_retry(self, spec, reply: Message, attempt: int) -> bool:
        # Candidate answers are optimistic: by creation time the winner
        # may have filled up.  Re-select and try elsewhere -- but only
        # for that race, exactly as the pre-placement client did.
        return "bytes requested" in reply.get("error", "")


class RandomK(PlacementPolicy):
    """Power-of-d-choices probing: sample ``k`` cached-idle hosts, probe
    their live load, place on the least-loaded prober that is willing.

    O(k) selection messages instead of a cluster-wide multicast; the
    probes refresh the cache as a side effect.  Falls back to the
    multicast when the cached view has no fresh idle entries or no
    probed host is willing.
    """

    name = "random_k"
    admission = True

    def __init__(self, k: int = 3, idle_load: int = DEFAULT_IDLE_LOAD):
        self.k = k
        self.idle_load = idle_load

    def _stream(self, ctx):
        """A seed-isolated stream per requesting process: parallel sweep
        coordinates must not share probe randomness."""
        return ctx.sim.rand.stream(f"placement.randomk.{ctx.self_pid}")

    def select(self, ctx, spec, attempt: int, exclude):
        cache = getattr(ctx, "host_cache", None)
        if cache is None or ctx.sim is None:
            result = yield from self._fallback(ctx, spec)
            return result
        candidates = [d for d in cache.idle_hosts(idle_load=self.idle_load)
                      if d.host not in exclude]
        if not candidates:
            result = yield from self._fallback(ctx, spec)
            return result
        k = min(self.k, len(candidates))
        sample = candidates if k == len(candidates) else self._stream(
            ctx).sample(candidates, k)
        m = ctx.sim.metrics
        best: Optional[HostDigest] = None
        for d in sorted(sample, key=_fit_key):
            try:
                reply = yield Send(d.pm, Message(
                    "probe-load", memory_needed=spec.memory_needed))
            except (SendTimeoutError, NoSuchProcessError):
                cache.drop(d.host)
                continue
            if m.active:
                m.counter("placement.probes").inc()
            cache.observe_reply(reply)
            live = HostDigest.from_fields(reply.get("digest") or {})
            if not reply.get("willing", False) or live is None:
                continue
            if best is None or _fit_key(live) < _fit_key(best):
                best = live
        if best is None:
            result = yield from self._fallback(ctx, spec)
            return result
        return Selection(pm=best.pm, host=best.host)

    def backoff_us(self, attempt: int) -> int:
        return 2_000 << attempt


class CachedBestFit(PlacementPolicy):
    """Zero-probe placement: trust the cached view outright and pick its
    least-loaded fresh host.  Cheapest possible selection (no messages
    at all); staleness is caught by the admission check on the
    ``create-program`` itself, whose polite decline carries a fresh
    digest -- so a retry already sees corrected state."""

    name = "best_fit"
    admission = True

    def select(self, ctx, spec, attempt: int, exclude):
        cache = getattr(ctx, "host_cache", None)
        best = cache.best_fit(exclude=tuple(exclude)) if cache else None
        if best is None:
            result = yield from self._fallback(ctx, spec)
            return result
        return Selection(pm=best.pm, host=best.host)
        yield  # pragma: no cover - generator marker

    def backoff_us(self, attempt: int) -> int:
        return 2_000 << attempt


#: Policy name -> class, for CLI/scenario config strings.
POLICIES = {
    FirstResponder.name: FirstResponder,
    RandomK.name: RandomK,
    CachedBestFit.name: CachedBestFit,
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
