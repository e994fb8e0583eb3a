"""Tests for the bulk-transfer data plane: page-granular selective
retransmission.

Every copy streams one page per frame.  A lost frame must be recovered
by NAKing exactly the missing pages, never by restarting a multi-second
stream.  The CopyTo direction is pinned by
``tests/migration/test_data_plane_trajectory.py``
(``test_lossy_copyto_recovers_through_a_nak_trajectory``); this file
covers CopyFrom.
"""

from repro.config import PAGE_SIZE
from repro.kernel import CopyFromInstr, Delay
from repro.net.loss import LossModel

from tests.helpers import make_cluster


class DropNthOfKind(LossModel):
    """Deterministically drop the Nth delivery of one packet kind, and
    tally every delivery attempt by kind (the test's observation point)."""

    def __init__(self, kind: str, nth: int):
        self.kind = kind
        self.nth = nth
        self.seen = 0
        self.counts = {}

    def drops(self, sim, packet) -> bool:
        self.counts[packet.kind] = self.counts.get(packet.kind, 0) + 1
        if packet.kind == self.kind:
            self.seen += 1
            if self.seen == self.nth:
                return True
        return False


def test_lost_copyfrom_page_is_naked_and_resent_alone():
    """One ``copyfrom-data`` frame of a 40-page CopyFrom is dropped.  The
    requester NAKs exactly once, the server re-sends exactly that one
    page, and the requester still gets every page at its version."""
    loss = DropNthOfKind("copyfrom-data", 2)
    cluster = make_cluster(2, loss=loss)
    a, b = cluster.stations

    def idle():
        yield Delay(600_000_000)

    src_lh, src_pcb = cluster.spawn_program(
        b, idle(), space_bytes=PAGE_SIZE * 40, name="src"
    )
    src_pcb.space.touch_pages(range(0, 40, 2))
    got = []

    def fetcher():
        snaps = yield CopyFromInstr(src_pcb.pid, range(40))
        got.append(snaps)

    cluster.spawn_program(a, fetcher(), name="fetcher")
    cluster.run(until_us=600_000_000)

    assert loss.seen >= 2, "the targeted frame never crossed the wire"
    assert loss.counts.get("copyfrom-nak") == 1
    assert loss.counts.get("copyfrom-data") == 40 + 1
    assert [s.index for s in got[0]] == list(range(40))
    assert [s.version for s in got[0]] == [1, 0] * 20
