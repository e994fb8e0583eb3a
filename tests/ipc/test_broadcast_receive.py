"""Broadcast receive: one delivery pass and one processing step per
frame, a host query answered only by the kernel hosting the logical
host (checked at processing time), and receive accounting pinned to the
values of one handler event per receiving NIC."""

import pytest

import repro.cluster
from repro.config import DEFAULT_MODEL
from repro.errors import IpcError
from repro.net import BernoulliLoss, Packet
from repro.net.addresses import BROADCAST
from repro.parallel.scenarios import get_scenario

from tests.helpers import make_cluster


def _query(cluster, lhid, asker=0):
    """Broadcast a host query for ``lhid`` from station ``asker``; return
    the instant the frame is processed."""
    cluster.stations[asker].kernel.ipc._broadcast_ghq(lhid)
    return cluster.sim.now + DEFAULT_MODEL.packet_wire_us(64) \
        + DEFAULT_MODEL.packet_process_us


class TestHostQuery:
    def test_only_the_hosting_kernel_answers(self):
        cluster = make_cluster(5)
        lh = cluster.stations[3].kernel.create_logical_host()
        _query(cluster, lh.lhid)
        cluster.run()
        assert cluster.net.packets_sent == 2  # the query + one reply
        cache = cluster.stations[0].kernel.binding_cache
        assert cache.lookup(lh.lhid) == cluster.stations[3].nic.address
        # Every other kernel received the frame and stayed silent.
        assert [s.nic.received for s in cluster.stations] == [1, 1, 1, 1, 1]

    def test_host_arriving_within_processing_window_answers(self):
        cluster = make_cluster(4)
        kernel = cluster.stations[2].kernel
        lhid = kernel.allocate_lhid()
        processed_at = _query(cluster, lhid)
        # Arrives after the frame is delivered, before it is processed.
        cluster.sim.schedule(processed_at - 500,
                             kernel.create_logical_host, lhid)
        cluster.run()
        assert cluster.net.packets_sent == 2
        cache = cluster.stations[0].kernel.binding_cache
        assert cache.lookup(lhid) == cluster.stations[2].nic.address

    def test_host_leaving_within_processing_window_stays_silent(self):
        cluster = make_cluster(4)
        kernel = cluster.stations[2].kernel
        lh = kernel.create_logical_host()
        processed_at = _query(cluster, lh.lhid)
        cluster.sim.schedule(processed_at - 500,
                             kernel.destroy_logical_host, lh)
        cluster.run()
        assert cluster.net.packets_sent == 1  # the query only
        assert cluster.stations[0].kernel.binding_cache.lookup(lh.lhid) is None

    def test_unknown_kind_raises(self):
        cluster = make_cluster(2)
        nic = cluster.stations[0].nic
        nic.send(Packet(nic.address, BROADCAST, "bogus", None))
        with pytest.raises(IpcError, match="unknown packet kind 'bogus'"):
            cluster.run()


# Per-NIC receive accounting of small storms, recorded with one handler
# timer per receiving NIC (before broadcasts were delivered in one
# pass): frames received per NIC (address order), coalesced handler
# timers, recycled frames, events and frames sent.
RECORDED = {
    "probe": dict(
        received=[455, 446, 376, 352, 313, 291, 280, 277, 269, 263, 386,
                  408, 415, 390, 354, 315, 372],
        rx_coalesced=3585, recycled=2377, events=15078, sent=2377),
    "lossy": dict(
        received=[393, 406, 303, 316, 193, 195, 213, 185, 184, 189, 270,
                  255, 273],
        rx_coalesced=1646, recycled=1781, events=10009, sent=1781),
    "chaos": dict(
        received=[59, 50, 115, 37, 19],
        rx_coalesced=39, recycled=225, events=1405, sent=225),
}

RUNS = {
    "probe": ("job_storm",
              {"workstations": 16, "jobs": 40, "policy": "random_k"}, None),
    "lossy": ("job_storm",
              {"workstations": 12, "jobs": 30, "policy": "random_k"}, 0.03),
    "chaos": ("chaos",
              {"schedule": "mixed", "messages": 20, "placement": True}, None),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_receive_accounting_matches_recorded(name, monkeypatch):
    scenario, config, loss = RUNS[name]
    built = []
    build = repro.cluster.build_cluster

    def capture(*args, **kwargs):
        if loss is not None:
            kwargs["loss"] = BernoulliLoss(loss)
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(repro.cluster, "build_cluster", capture)
    get_scenario(scenario)(config, 3)
    cluster = built[-1]
    net = cluster.net
    nics = sorted(net._nics.values(), key=lambda nic: nic.address.value)
    expected = RECORDED[name]
    assert [nic.received for nic in nics] == expected["received"]
    assert all(nic.dropped_no_handler == 0 for nic in nics)
    assert net.rx_coalesced == expected["rx_coalesced"]
    assert net.pool.recycled == expected["recycled"]
    assert cluster.sim.event_count == expected["events"]
    assert net.packets_sent == expected["sent"]
