"""What one ``@ *`` host selection costs the event core.

The requester multicasts one candidate query to the program-manager
group (paper §2.1); every member on another host answers.  Per member
that is six scheduled events -- the manager's dispatch, its two steps
and its compute, the expiry of its server record and its reply's
landing at the requester -- one reserved slot and eight modelled
events.  The slot is the idle dispatch after the manager has replied
and blocked in Receive again (``Simulator.reserve``: it counts as an
event but is never queued); the eighth modelled event is the reply's
arrival, which lands together with its processing.  An idle dispatch
that comes back as a queued event, or another scheduled event per
member, fails the pins below.

The cost is the difference between a cluster that runs the selection
and the same cluster left alone, over the same simulated span, so the
boot of the cluster is not counted.
"""

import pytest

from repro.cluster import build_cluster
from repro.execution.api import select_candidate_host
from repro.sim import Simulator

#: Per answering member: scheduled events, reserved slots, modelled
#: events.  Recorded at 4 and 16 hosts.
SCHEDULED_PER_MEMBER = 6
SLOTS_PER_MEMBER = 1
EVENTS_PER_MEMBER = 8
#: The requester's share: its dispatch and two steps, the query's
#: tx-done hop, its retransmission timer, one receive batch for every
#: member, the client's expiry, and the slot of its CPU idling while
#: it waits.
SCHEDULED_BESIDES_MEMBERS = 8
SLOTS_BESIDES_MEMBERS = 1
EVENTS_BESIDES_MEMBERS = 7

#: Long enough for the selection to finish and every reply to land.
SPAN_US = 2_000_000


def _run(monkeypatch, n_hosts, select):
    """Build an ``n_hosts`` cluster (seed 0), optionally run one ``@ *``
    selection from a session on ws0, and run to ``SPAN_US``; returns the
    scheduled events, reserved slots and modelled events of the whole
    run, and the replies."""
    counts = {"scheduled": 0, "slots": 0}
    schedule, reserve = Simulator.schedule, Simulator.reserve

    def counting_schedule(sim, delay_us, fn, *args):
        counts["scheduled"] += 1
        return schedule(sim, delay_us, fn, *args)

    def counting_reserve(sim, fn):
        counts["slots"] += 1
        return reserve(sim, fn)

    # Before the cluster is built: the segment caches ``sim.schedule``.
    monkeypatch.setattr(Simulator, "schedule", counting_schedule)
    monkeypatch.setattr(Simulator, "reserve", counting_reserve)
    cluster = build_cluster(n_workstations=n_hosts, seed=0)
    replies = []

    def session(ctx):
        replies.append((yield from select_candidate_host()))

    if select:
        cluster.spawn_session(cluster.workstations[0], session)
    cluster.run(until_us=SPAN_US)
    monkeypatch.undo()
    return counts["scheduled"], counts["slots"], cluster.sim.event_count, \
        replies, cluster


@pytest.mark.parametrize("n_hosts", [4, 16])
def test_one_group_query_costs_six_scheduled_events_per_member(
        monkeypatch, n_hosts):
    idle = _run(monkeypatch, n_hosts, select=False)
    busy = _run(monkeypatch, n_hosts, select=True)
    replies, cluster = busy[3], busy[4]
    assert len(replies) == 1 and replies[0]["host"] != "ws0"
    # The query and one reply per member: the broadcast does not reach
    # the requester's own host.
    members = n_hosts - 1
    assert cluster.net.packets_sent == 1 + members
    scheduled, slots, events = (b - i for b, i in zip(busy[:3], idle[:3]))
    assert scheduled == (SCHEDULED_PER_MEMBER * members
                         + SCHEDULED_BESIDES_MEMBERS)
    assert slots == SLOTS_PER_MEMBER * members + SLOTS_BESIDES_MEMBERS
    assert events == EVENTS_PER_MEMBER * members + EVENTS_BESIDES_MEMBERS
