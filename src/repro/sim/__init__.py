"""Deterministic discrete-event simulation engine.

The engine fires scheduled callbacks over an integer microsecond clock:
``sim.schedule(delay_us, fn, *args)`` runs ``fn(*args)`` ``delay_us``
microseconds from now and returns a cancellable :class:`Timer`.  A
callback that wants to keep going schedules its own next step::

    def tick(n):
        print(sim.now)
        if n:
            sim.schedule(1_000, tick, n - 1)

    sim.schedule(0, tick, 3)
    sim.run()

Simulated processes (program bodies) are generators stepped by the
kernel's scheduler (:mod:`repro.kernel.scheduler`), not by this package.

Determinism: given the same seed and the same schedule order, every run
produces an identical event sequence.  All randomness must come from
:class:`RandomStreams`.
"""

from repro.sim.engine import Simulator, Timer
from repro.sim.random import RandomStreams
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "Simulator",
    "Timer",
    "RandomStreams",
    "Tracer",
    "TraceRecord",
]
