"""Integration-grade unit tests for the IPC transport.

These drive real process bodies on bare workstations over the simulated
Ethernet and check the V semantics the paper relies on.
"""

import pytest

from repro.errors import NoSuchProcessError, SendTimeoutError
from repro.ipc import Message
from repro.kernel import (
    Compute,
    CopyFromInstr,
    CopyToInstr,
    Delay,
    Forward,
    Priority,
    Receive,
    Reply,
    Send,
)
from repro.kernel.ids import Pid, local_kernel_server_group
from repro.net import BernoulliLoss

from tests.helpers import BareCluster


def echo_server_body(count=None):
    """Reply to each request with its payload echoed back."""
    served = 0
    while count is None or served < count:
        sender, msg = yield Receive()
        yield Reply(sender, msg.replying(echo=msg.get("payload")))
        served += 1


class TestLocalSend:
    def test_send_receive_reply_same_host(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]
        lh, server = cluster.spawn_program(ws, echo_server_body(1), name="server")
        got = []

        def client():
            reply = yield Send(server.pid, Message("ping", payload=42))
            got.append(reply)

        cluster.spawn_program(ws, client(), lh=lh, name="client")
        cluster.run()
        assert got and got[0]["echo"] == 42

    def test_local_rpc_takes_sub_millisecond(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]
        lh, server = cluster.spawn_program(ws, echo_server_body(1), name="server")
        times = []

        def client():
            start = cluster.sim.now
            yield Send(server.pid, Message("ping"))
            times.append(cluster.sim.now - start)

        cluster.spawn_program(ws, client(), lh=lh, name="client")
        cluster.run()
        assert times[0] < 5_000  # well under the remote cost

    def test_send_to_dead_process_raises(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]
        lh = ws.kernel.create_logical_host()
        ws.kernel.allocate_space(lh, 4096)
        caught = []

        def client():
            try:
                yield Send(Pid(lh.lhid, 0x99), Message("ping"))
            except NoSuchProcessError:
                caught.append(True)

        cluster.spawn_program(ws, client(), lh=lh, name="client")
        cluster.run()
        assert caught == [True]

    def test_messages_queue_when_server_busy(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]

        def slow_server():
            for _ in range(3):
                sender, msg = yield Receive()
                yield Compute(50_000)
                yield Reply(sender, msg.replying(ok=True))

        lh, server = cluster.spawn_program(ws, slow_server(), name="server")
        done = []

        def client(tag):
            yield Send(server.pid, Message("req", payload=tag))
            done.append(tag)

        for tag in ("a", "b", "c"):
            cluster.spawn_program(ws, client(tag), name=f"client-{tag}")
        cluster.run()
        assert sorted(done) == ["a", "b", "c"]


class TestRemoteSend:
    def make_pair(self, seed=0, loss=None):
        cluster = BareCluster(n=2, seed=seed, loss=loss)
        a, b = cluster.stations
        _, server = cluster.spawn_program(b, echo_server_body(), name="server")
        return cluster, a, b, server

    def test_remote_send_resolves_by_broadcast_and_delivers(self):
        cluster, a, b, server = self.make_pair()
        got = []

        def client():
            reply = yield Send(server.pid, Message("ping", payload="hi"))
            got.append(reply["echo"])

        cluster.spawn_program(a, client(), name="client")
        cluster.run(until_us=2_000_000)
        assert got == ["hi"]
        # The client's kernel learned the binding.
        assert a.kernel.binding_cache.lookup(server.pid.logical_host_id) == b.address

    def test_remote_send_costs_milliseconds(self):
        cluster, a, b, server = self.make_pair()
        times = []

        def client():
            # Prime the binding cache with a first exchange.
            yield Send(server.pid, Message("ping"))
            start = cluster.sim.now
            yield Send(server.pid, Message("ping"))
            times.append(cluster.sim.now - start)

        cluster.spawn_program(a, client(), name="client")
        cluster.run(until_us=2_000_000)
        assert times and 1_000 < times[0] < 20_000

    def test_at_most_once_under_heavy_loss(self):
        cluster, a, b, server_unused = None, None, None, None
        cluster = BareCluster(n=2, seed=3, loss=BernoulliLoss(0.4))
        a, b = cluster.stations
        served = []

        def counting_server():
            while True:
                sender, msg = yield Receive()
                served.append(msg["n"])
                yield Reply(sender, msg.replying(ok=True))

        _, server = cluster.spawn_program(b, counting_server(), name="server")
        completed = []

        def client():
            for n in range(5):
                yield Send(server.pid, Message("req", n=n))
                completed.append(n)

        cluster.spawn_program(a, client(), name="client")
        cluster.run(until_us=60_000_000)
        assert completed == [0, 1, 2, 3, 4]
        # Retransmissions happened, but the application saw each exactly once.
        assert served == [0, 1, 2, 3, 4]
        assert a.kernel.ipc.retransmissions > 0

    def test_send_to_crashed_host_times_out(self):
        cluster, a, b, server = self.make_pair()
        caught = []

        def client():
            # Prime the cache.
            yield Send(server.pid, Message("ping"))
            b.crash()
            try:
                yield Send(server.pid, Message("ping"))
            except SendTimeoutError:
                caught.append(cluster.sim.now)

        cluster.spawn_program(a, client(), name="client")
        cluster.run(until_us=60_000_000)
        assert len(caught) == 1

    def test_reply_pending_prevents_timeout_during_slow_service(self):
        """A service taking far longer than the retransmission budget must
        not abort the sender (paper §3.1)."""
        cluster = BareCluster(n=2)
        a, b = cluster.stations

        def very_slow_server():
            sender, msg = yield Receive()
            yield Compute(5_000_000)  # 5 s >> 5 x 200 ms retransmit budget
            yield Reply(sender, msg.replying(ok=True))

        _, server = cluster.spawn_program(b, very_slow_server(), name="server")
        got = []

        def client():
            reply = yield Send(server.pid, Message("big-job"))
            got.append(reply["ok"])

        cluster.spawn_program(a, client(), name="client")
        cluster.run(until_us=30_000_000)
        assert got == [True]
        assert b.kernel.ipc.reply_pendings_sent > 0

    def test_duplicate_request_after_reply_resends_retained_reply(self):
        # Force the reply packet to be lost exactly once using a scripted
        # loss model.
        class LoseNthReply:
            def __init__(self):
                self.dropped = False

            def drops(self, sim, packet):
                if packet.kind == "reply" and not self.dropped:
                    self.dropped = True
                    return True
                return False

        cluster = BareCluster(n=2, loss=LoseNthReply())
        a, b = cluster.stations
        _, server = cluster.spawn_program(b, echo_server_body(), name="server")
        got = []

        def client():
            reply = yield Send(server.pid, Message("ping", payload=1))
            got.append(reply["echo"])

        cluster.spawn_program(a, client(), name="client")
        cluster.run(until_us=10_000_000)
        assert got == [1]


class TestWellKnownLocalGroups:
    def test_kernel_server_reachable_via_own_lhid(self):
        """Paper §2: the kernel server is addressed by the program's own
        logical-host-id plus a well-known index."""
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]
        got = []

        def client():
            ks = local_kernel_server_group_for_me = None
            reply = yield Send(
                local_kernel_server_group(me_lh.lhid), Message("get-time")
            )
            got.append(reply["now_us"])

        me_lh = ws.kernel.create_logical_host()
        ws.kernel.allocate_space(me_lh, 4096)
        cluster.spawn_program(ws, client(), lh=me_lh, name="client")
        cluster.run()
        assert got and got[0] > 0

    def test_kernel_server_query_load(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]
        got = []

        def client():
            reply = yield Send(
                local_kernel_server_group(me_lh.lhid), Message("query-load")
            )
            got.append(reply)

        me_lh = ws.kernel.create_logical_host()
        ws.kernel.allocate_space(me_lh, 4096)
        cluster.spawn_program(ws, client(), lh=me_lh, name="client")
        cluster.run()
        assert got[0]["memory_free"] > 0

    def test_remote_kernel_server_reachable_via_remote_lhid(self):
        """Addressing (remote-lhid, KS-index) reaches the *remote* host's
        kernel server: location-independent host-specific service."""
        cluster = BareCluster(n=2)
        a, b = cluster.stations
        remote_lh = b.kernel.create_logical_host()
        b.kernel.allocate_space(remote_lh, 4096)
        got = []

        def client():
            reply = yield Send(
                local_kernel_server_group(remote_lh.lhid), Message("query-load")
            )
            got.append(reply)

        cluster.spawn_program(a, client(), name="client")
        cluster.run(until_us=5_000_000)
        assert got and got[0].kind == "load"


class TestKernelServerOps:
    def test_destroy_process_via_ks(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]

        def victim():
            yield Delay(10_000_000)

        lh, victim_pcb = cluster.spawn_program(ws, victim(), name="victim")
        done = []

        def killer():
            reply = yield Send(
                local_kernel_server_group(me_lh.lhid),
                Message("destroy-process", pid=victim_pcb.pid),
            )
            done.append(reply.kind)

        me_lh = ws.kernel.create_logical_host()
        ws.kernel.allocate_space(me_lh, 4096)
        cluster.spawn_program(ws, killer(), lh=me_lh, name="killer")
        cluster.run(until_us=1_000_000)
        assert done == ["ok"]
        assert not victim_pcb.alive

    def test_query_process_via_ks(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]

        def victim():
            yield Delay(10_000_000)

        lh, victim_pcb = cluster.spawn_program(ws, victim(), name="victim")
        got = []

        def querier():
            reply = yield Send(
                local_kernel_server_group(lh.lhid),
                Message("query-process", pid=victim_pcb.pid),
            )
            got.append(reply)

        cluster.spawn_program(ws, querier(), lh=lh, name="querier")
        cluster.run(until_us=1_000_000)
        assert got[0]["name"] == "victim"
        assert got[0]["state"] == "delaying"

    def test_unknown_op_gets_error_reply(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]
        got = []

        def client():
            reply = yield Send(
                local_kernel_server_group(me_lh.lhid), Message("no-such-op")
            )
            got.append(reply.kind)

        me_lh = ws.kernel.create_logical_host()
        ws.kernel.allocate_space(me_lh, 4096)
        cluster.spawn_program(ws, client(), lh=me_lh, name="client")
        cluster.run()
        assert got == ["ks-error"]


class TestForward:
    def test_forward_local_to_local(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]

        def final_server():
            sender, msg = yield Receive()
            yield Reply(sender, msg.replying(handled_by="final"))

        lh, final = cluster.spawn_program(ws, final_server(), name="final")

        def middleman():
            sender, msg = yield Receive()
            yield Forward(sender, msg, final.pid)
            yield Delay(1_000_000)

        _, middle = cluster.spawn_program(ws, middleman(), name="middle")
        got = []

        def client():
            reply = yield Send(middle.pid, Message("req"))
            got.append(reply["handled_by"])

        cluster.spawn_program(ws, client(), lh=lh, name="client")
        cluster.run(until_us=5_000_000)
        assert got == ["final"]

    def test_forward_to_remote_final_server(self):
        cluster = BareCluster(n=2)
        a, b = cluster.stations

        def final_server():
            sender, msg = yield Receive()
            yield Reply(sender, msg.replying(handled_by="remote-final"))

        _, final = cluster.spawn_program(b, final_server(), name="final")

        def middleman():
            sender, msg = yield Receive()
            yield Forward(sender, msg, final.pid)
            yield Delay(2_000_000)

        _, middle = cluster.spawn_program(a, middleman(), name="middle")
        got = []

        def client():
            reply = yield Send(middle.pid, Message("req"))
            got.append(reply["handled_by"])

        cluster.spawn_program(a, client(), name="client")
        cluster.run(until_us=10_000_000)
        assert got == ["remote-final"]


class TestGroups:
    def test_global_group_send_gets_first_reply(self):
        cluster = BareCluster(n=4)
        group = Pid(0xFFFF, 0x0042 | 0x8000)

        def member(delay_us):
            def body():
                while True:
                    sender, msg = yield Receive()
                    yield Compute(delay_us)
                    yield Reply(sender, msg.replying(who=delay_us))
            return body

        for i, ws in enumerate(cluster.stations[1:], start=1):
            _, pcb = cluster.spawn_program(ws, member(i * 10_000)(), name=f"m{i}")
            ws.kernel.groups.join(group, pcb.pid)
        got = []

        def client():
            reply = yield Send(group, Message("query"))
            got.append(reply["who"])

        cluster.spawn_program(cluster.stations[0], client(), name="client")
        cluster.run(until_us=10_000_000)
        # Fastest member (10 ms handling) answers first.
        assert got == [10_000]

    def test_group_send_with_no_members_times_out(self):
        cluster = BareCluster(n=2)
        group = Pid(0xFFFF, 0x0043 | 0x8000)
        caught = []

        def client():
            try:
                yield Send(group, Message("anyone"))
            except SendTimeoutError:
                caught.append(True)

        cluster.spawn_program(cluster.stations[0], client(), name="client")
        cluster.run(until_us=60_000_000)
        assert caught == [True]

    def test_extra_group_replies_are_collected(self):
        cluster = BareCluster(n=4)
        group = Pid(0xFFFF, 0x0044 | 0x8000)

        def member():
            sender, msg = yield Receive()
            yield Reply(sender, msg.replying(ok=True))

        for ws in cluster.stations[1:]:
            _, pcb = cluster.spawn_program(ws, member(), name="m")
            ws.kernel.groups.join(group, pcb.pid)
        counts = []

        def client():
            yield Send(group, Message("query"))
            yield Delay(1_000_000)  # let stragglers answer
            counts.append(len(client_pcb.logical_host.kernel.ipc.group_replies(client_pcb)))

        _, client_pcb = cluster.spawn_program(cluster.stations[0], client(), name="client")
        cluster.run(until_us=10_000_000)
        # 3 members answered; all replies (first + extras) were collected.
        assert counts == [3]


class TestBulkCopy:
    def test_copyto_remote_transfers_pages(self):
        from repro.config import PAGE_SIZE

        cluster = BareCluster(n=2)
        a, b = cluster.stations

        def idle():
            yield Delay(60_000_000)

        dst_lh, dst_pcb = cluster.spawn_program(
            b, idle(), space_bytes=PAGE_SIZE * 16, name="dst"
        )
        src_lh = a.kernel.create_logical_host()
        src_space = a.kernel.allocate_space(src_lh, PAGE_SIZE * 16, name="src")
        src_space.load_image()
        done = []

        def copier():
            n = yield CopyToInstr(dst_pcb.pid, src_space.pages)
            done.append(n)

        cluster.spawn_program(a, copier(), lh=src_lh, name="copier")
        cluster.run(until_us=60_000_000)
        assert done == [16]
        assert dst_pcb.space.identical_to(src_space)

    def test_copyto_rate_is_about_3s_per_mb(self):
        from repro.config import PAGE_SIZE

        cluster = BareCluster(n=2)
        a, b = cluster.stations
        mb = 1024 * 1024

        def idle():
            yield Delay(600_000_000)

        dst_lh, dst_pcb = cluster.spawn_program(b, idle(), space_bytes=mb, name="dst")
        src_lh = a.kernel.create_logical_host()
        src_space = a.kernel.allocate_space(src_lh, mb, name="src")
        times = []

        def copier():
            start = cluster.sim.now
            yield CopyToInstr(dst_pcb.pid, src_space.pages)
            times.append(cluster.sim.now - start)

        cluster.spawn_program(a, copier(), lh=src_lh, name="copier")
        cluster.run(until_us=600_000_000)
        assert times and 2_700_000 < times[0] < 3_400_000

    def test_copyto_to_crashed_host_fails(self):
        from repro.config import PAGE_SIZE
        from repro.errors import CopyFailedError

        cluster = BareCluster(n=2)
        a, b = cluster.stations

        def idle():
            yield Delay(60_000_000)

        dst_lh, dst_pcb = cluster.spawn_program(
            b, idle(), space_bytes=PAGE_SIZE * 4, name="dst"
        )
        src_lh = a.kernel.create_logical_host()
        src_space = a.kernel.allocate_space(src_lh, PAGE_SIZE * 4, name="src")
        caught = []

        def copier():
            # Prime the binding, then crash the destination.
            yield Send(local_kernel_server_group(dst_lh.lhid), Message("get-time"))
            b.crash()
            try:
                yield CopyToInstr(dst_pcb.pid, src_space.pages)
            except CopyFailedError:
                caught.append(True)

        cluster.spawn_program(a, copier(), lh=src_lh, name="copier")
        cluster.run(until_us=120_000_000)
        assert caught == [True]

    def test_copyfrom_remote_fetches_snapshots(self):
        from repro.config import PAGE_SIZE

        cluster = BareCluster(n=2)
        a, b = cluster.stations

        def idle():
            yield Delay(60_000_000)

        src_lh, src_pcb = cluster.spawn_program(
            b, idle(), space_bytes=PAGE_SIZE * 8, name="src"
        )
        src_pcb.space.touch_pages([0, 1, 2])
        got = []

        def fetcher():
            snaps = yield CopyFromInstr(src_pcb.pid, [0, 1, 2, 3])
            got.append(snaps)

        cluster.spawn_program(a, fetcher(), name="fetcher")
        cluster.run(until_us=60_000_000)
        assert len(got[0]) == 4
        assert [s.version for s in got[0]] == [1, 1, 1, 0]

    def test_copyfrom_serves_only_in_range_pages(self):
        # The index list arrives from a remote kernel: -1 and n_pages
        # fall outside the space and are skipped, not wrapped around.
        from repro.config import PAGE_SIZE

        cluster = BareCluster(n=2)
        a, b = cluster.stations

        def idle():
            yield Delay(60_000_000)

        src_lh, src_pcb = cluster.spawn_program(
            b, idle(), space_bytes=PAGE_SIZE * 8, name="src"
        )
        src_pcb.space.touch_pages([2, 7, 7])
        got = []

        def fetcher():
            snaps = yield CopyFromInstr(src_pcb.pid, [-1, 2, 8, 7])
            got.append(snaps)

        cluster.spawn_program(a, fetcher(), name="fetcher")
        cluster.run(until_us=60_000_000)
        assert [(s.index, s.version) for s in got[0]] == [(2, 1), (7, 2)]

    def test_copyto_local_is_fast(self):
        from repro.config import PAGE_SIZE

        cluster = BareCluster(n=1)
        ws = cluster.stations[0]

        def idle():
            yield Delay(60_000_000)

        dst_lh, dst_pcb = cluster.spawn_program(
            ws, idle(), space_bytes=PAGE_SIZE * 8, name="dst"
        )
        src_lh = ws.kernel.create_logical_host()
        src_space = ws.kernel.allocate_space(src_lh, PAGE_SIZE * 8, name="src")
        src_space.load_image()
        times = []

        def copier():
            start = cluster.sim.now
            yield CopyToInstr(dst_pcb.pid, src_space.pages)
            times.append(cluster.sim.now - start)

        cluster.spawn_program(ws, copier(), lh=src_lh, name="copier")
        cluster.run(until_us=60_000_000)
        assert times and times[0] < 100_000
        assert dst_pcb.space.identical_to(src_space)


class TestFreezeSemantics:
    def test_frozen_process_does_not_run(self):
        cluster = BareCluster(n=1)
        ws = cluster.stations[0]
        log = []

        def body():
            while True:
                yield Compute(10_000)
                log.append(cluster.sim.now)

        lh, pcb = cluster.spawn_program(ws, body(), name="looper")
        cluster.run(until_us=50_000)
        count_at_freeze = len(log)
        ws.kernel.freeze_logical_host(lh)
        cluster.run(until_us=1_000_000)
        assert len(log) == count_at_freeze
        ws.kernel.unfreeze_logical_host(lh)
        cluster.run(until_us=1_200_000)
        assert len(log) > count_at_freeze

    def test_request_to_frozen_process_is_deferred_not_lost(self):
        cluster = BareCluster(n=2)
        a, b = cluster.stations
        lh, server = cluster.spawn_program(b, echo_server_body(), name="server")
        got = []

        def client():
            # Prime binding.
            yield Send(server.pid, Message("ping", payload=0))
            b.kernel.freeze_logical_host(lh)
            reply = yield Send(server.pid, Message("ping", payload=1))
            got.append((cluster.sim.now, reply["echo"]))

        cluster.spawn_program(a, client(), name="client")
        cluster.run(until_us=3_000_000)
        assert got == []  # still frozen: the send is pending, not failed
        b.kernel.unfreeze_logical_host(lh)
        cluster.run(until_us=10_000_000)
        assert [echo for _, echo in got] == [1]

    def test_sender_does_not_timeout_during_long_freeze(self):
        """Reply-pending keeps the sender alive across a multi-second
        freeze (paper §3.1: aborts are prevented)."""
        cluster = BareCluster(n=2)
        a, b = cluster.stations
        lh, server = cluster.spawn_program(b, echo_server_body(), name="server")
        got, failed = [], []

        def client():
            yield Send(server.pid, Message("ping", payload=0))
            b.kernel.freeze_logical_host(lh)
            try:
                reply = yield Send(server.pid, Message("ping", payload=1))
                got.append(reply["echo"])
            except SendTimeoutError:
                failed.append(True)

        cluster.spawn_program(a, client(), name="client")
        cluster.run(until_us=8_000_000)  # frozen for 8 s >> retransmit budget
        b.kernel.unfreeze_logical_host(lh)
        cluster.run(until_us=20_000_000)
        assert failed == []
        assert got == [1]
