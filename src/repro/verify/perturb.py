"""The schedule perturbation engine: seeded same-instant tie fuzzing.

The engine's determinism rests on ``(time, seq)`` tie-breaking: events
scheduled for the same instant fire in schedule order.  The paper's
protocol argument, though, must not *depend* on that accident -- freeze
completions, retransmissions and reply deliveries that land on the same
microsecond have no defined relative order in a real V kernel.  A
:class:`TiePerturber` that a simulator is built with
(``build_cluster(perturber=...)``, which hands it to
``Simulator(seed, perturber=...)``) permutes exactly those ties:

* every ``schedule`` (or ``reserve``, which takes the key a zero-delay
  ``schedule`` would) whose instant already has pending entries is a
  *swap opportunity*, numbered 1, 2, 3, ... in schedule order;
* a seeded RNG takes each opportunity with probability ``rate``;
* a taken swap files the new entry *just before* the youngest pending
  same-instant entry, by handing the heap a fractional key between the
  two newest keys (original keys are integers >= 1 apart, so midpoints
  never collide and the ``(time, key, timer)`` tuples never compare
  timers).

The perturbation is deliberately local: one swap transposes two
adjacent same-instant entries and nothing else.  A perturbed run is a
pure function of (scenario config, scenario seed, perturber seed, rate),
so replaying a failing cell means rerunning it with the same seed.

Off by default (nothing constructs one outside the verification
harness).
"""

from __future__ import annotations

import random
from typing import List

#: Prune the per-instant key table once it tracks this many instants;
#: entries for past instants can never tie again.
_PRUNE_THRESHOLD = 2048


class TiePerturber:
    """Seeded permutation of same-instant schedule order.

    ``seed`` drives the fuzz RNG; ``rate`` is the per-opportunity swap
    probability.  After a run, :attr:`swaps` holds the ordinals actually
    taken and :attr:`opportunities` the total count seen.
    """

    def __init__(self, seed: int = 0, rate: float = 0.25):
        self.seed = seed
        self.rate = rate
        self._rng = random.Random(f"tie-perturber:{seed}")
        #: Same-instant schedule collisions seen (1-based ordinals).
        self.opportunities = 0
        #: Opportunity ordinals where a swap was performed, in order.
        self.swaps: List[int] = []
        # time -> ascending list of heap keys already assigned there.
        self._keys = {}

    # ------------------------------------------------------------------ hook

    def assign(self, sim, time: int, seq: int):
        """The engine hook: the heap key for a new entry at ``time``
        whose natural key is ``seq``.  Returns ``seq`` unchanged unless
        this opportunity is taken, in which case a fractional key filing
        the entry before the youngest pending same-instant entry."""
        keys = self._keys.get(time)
        if keys is None:
            if len(self._keys) > _PRUNE_THRESHOLD:
                now = sim._now
                self._keys = {
                    t: k for t, k in self._keys.items() if t >= now
                }
            self._keys[time] = [seq]
            return seq
        self.opportunities += 1
        if self._rng.random() >= self.rate:
            keys.append(seq)
            return seq
        # File just before the youngest pending key: midpoint keeps the
        # list sorted and, because original keys are >= 1 apart, unique.
        if len(keys) >= 2:
            key = (keys[-2] + keys[-1]) / 2.0
        else:
            key = keys[-1] - 0.5
        keys.insert(-1, key)
        self.swaps.append(self.opportunities)
        return key

    def describe(self) -> dict:
        """JSON-able account of this perturber's configuration and what
        it did (embedded in verify-cell results)."""
        return {
            "seed": self.seed,
            "rate": self.rate,
            "opportunities": self.opportunities,
            "swaps": list(self.swaps),
        }
