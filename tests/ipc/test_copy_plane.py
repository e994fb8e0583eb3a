"""Tests for the bulk-transfer data plane overhaul: burst pacing and
page-granular selective retransmission under bursts.

A model with ``copy_burst_pages`` > 1 (burst mode) makes the copy engine
emit one K-page blast frame per pacing timer instead of K per-page
frames.  The stream must
keep the calibrated 3 s/MB rate, deliver the same page versions, and --
critically -- recover a frame lost mid-burst by re-sending only the
missing pages, not the whole blast.
"""

from repro.config import PAGE_SIZE
from repro.kernel import CopyFromInstr, CopyToInstr, Delay
from repro.net.loss import LossModel

from tests.helpers import make_cluster

#: The toggle vector that builds clusters in burst mode.
BURST = {"burst_pacing": True}


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


def _copy_pages(cluster, n_pages, collect_time=False):
    """Run one remote CopyTo of ``n_pages`` and return (dst_space, us)."""
    a, b = cluster.stations

    def idle():
        yield Delay(600_000_000)

    dst_lh, dst_pcb = cluster.spawn_program(
        b, idle(), space_bytes=PAGE_SIZE * n_pages, name="dst"
    )
    src_lh = a.kernel.create_logical_host()
    src_space = a.kernel.allocate_space(
        src_lh, PAGE_SIZE * n_pages, name="src"
    )
    src_space.load_image()
    took = []

    def copier():
        start = cluster.sim.now
        yield CopyToInstr(dst_pcb.pid, src_space.pages)
        took.append(cluster.sim.now - start)

    cluster.spawn_program(a, copier(), lh=src_lh, name="copier")
    cluster.run(until_us=600_000_000)
    assert took, "copy never completed"
    return src_space, dst_pcb.space, took[0]


def test_burst_stream_delivers_identical_pages():
    cluster = make_cluster(2, toggles=BURST)
    src_space, dst_space, _ = _copy_pages(cluster, 48)
    assert dst_space.identical_to(src_space)
    copies = cluster.stations[0].kernel.ipc.copies
    assert copies.bursts == 3  # 48 pages / 16-page bursts
    assert copies.pacing_events == 3


def test_burst_pacing_preserves_the_3s_per_mb_rate():
    cluster = make_cluster(2, toggles=BURST)
    mb_pages = (1024 * 1024) // PAGE_SIZE
    _, dst_space, took = _copy_pages(cluster, mb_pages)
    assert 2_700_000 < took < 3_400_000


def test_burst_and_per_page_streams_agree():
    """Same pages, same versions, near-identical duration either way."""
    per_page = make_cluster(2)
    src_off, dst_off, t_off = _copy_pages(per_page, 48)

    bursty = make_cluster(2, toggles=BURST)
    src_on, dst_on, t_on = _copy_pages(bursty, 48)

    assert dst_off.version_vector() == dst_on.version_vector()
    assert abs(t_on - t_off) < 0.02 * t_off
    assert bursty.stations[0].kernel.ipc.copies.pacing_events < \
        per_page.stations[0].kernel.ipc.copies.pacing_events / 3


def test_lost_mid_burst_frame_retransmits_only_its_pages():
    """Satellite: a frame lost mid-burst NAKs at page granularity.

    48 pages go out as 3 blasts; the 2nd is dropped.  Recovery must
    re-send exactly those 16 pages as per-page ``copy-data`` frames --
    never a 4th burst -- and the destination must still converge."""
    loss = DropNthOfKind("copy-burst", 2)
    cluster = make_cluster(2, loss=loss, toggles=BURST)
    src_space, dst_space, _ = _copy_pages(cluster, 48)

    assert loss.seen >= 2, "the targeted burst frame never crossed the wire"
    assert dst_space.identical_to(src_space)
    # The original stream: exactly 3 burst frames, one of them eaten.
    assert loss.counts.get("copy-burst") == 3
    # The retransmission: the 16 pages of the lost blast, page-granular.
    assert loss.counts.get("copy-data") == 16
    # The end-of-run announcement went out twice (stream + retransmit).
    assert loss.counts.get("copy-end", 0) >= 2


def test_copyfrom_burst_reply_matches_per_page():
    cluster = make_cluster(2, toggles=BURST)
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
    assert len(got[0]) == 40
    assert [s.version for s in got[0]] == [1, 0] * 20
    assert cluster.stations[1].kernel.ipc.copies.bursts == 3  # 40/16 -> 3
