"""Regression: a sender that timed out and moved on leaves its old
request queued at a busy server; the server's later replies must match
records in FIFO order, not explode or cross wires."""

import pytest

from repro.errors import SendTimeoutError
from repro.ipc import Message
from repro.kernel import Compute, Receive, Reply, Send

from tests.helpers import BareCluster


class DropReplyPendings:
    """Scripted loss: suppress every reply-pending packet so a slow
    server's client times out instead of being kept alive."""

    def __init__(self):
        self.dropped = 0

    def drops(self, sim, packet) -> bool:
        if packet.kind == "reply-pending":
            self.dropped += 1
            return True
        return False


def test_superseded_request_replies_resolve_fifo():
    loss = DropReplyPendings()
    cluster = BareCluster(n=2, loss=loss)
    a, b = cluster.stations
    served = []

    def slow_server():
        # Busy beyond the first send's retry horizon (~2.2 s) but within
        # the second's, then serve whatever queued.
        yield Compute(3_500_000)
        while True:
            sender, msg = yield Receive()
            served.append(msg["n"])
            yield Reply(sender, msg.replying(n=msg["n"]))

    _, server = cluster.spawn_program(b, slow_server(), name="server")
    events = []

    def client():
        try:
            reply = yield Send(server.pid, Message("req", n=1))
            events.append(("ok", reply["n"]))
        except SendTimeoutError:
            events.append(("timeout", 1))
        # Move on and send a second request regardless.
        reply = yield Send(server.pid, Message("req", n=2))
        events.append(("ok", reply["n"]))

    cluster.spawn_program(a, client(), name="client")
    cluster.run(until_us=120_000_000)
    # The first send timed out (its reply-pendings were all suppressed)...
    assert ("timeout", 1) in events
    # ...the second completed with its own reply, never the stale one.
    assert ("ok", 2) in events
    # The server processed both queued requests in arrival order and
    # nothing crashed when it replied to the abandoned first request.
    assert served == [1, 2]
    assert not b.kernel.faulted
    assert loss.dropped > 0
