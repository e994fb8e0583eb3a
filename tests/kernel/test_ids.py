"""Unit tests for pids and group identifiers."""

import copy
import json
import pickle

import pytest

from repro.kernel.ids import (
    GROUP_BIT,
    KERNEL_SERVER_INDEX,
    PROGRAM_MANAGER_GROUP,
    PROGRAM_MANAGER_INDEX,
    Pid,
    is_wellknown_local_group,
    local_kernel_server_group,
    local_program_manager_group,
)


def test_pid_packs_into_32_bits():
    pid = Pid(0x1234, 0x0042)
    assert pid.as_int() == 0x12340042
    assert Pid.from_int(0x12340042) == pid


def test_pid_fields_validated():
    with pytest.raises(ValueError):
        Pid(0x10000, 0)
    with pytest.raises(ValueError):
        Pid(0, -1)


def test_pid_equality_and_hash():
    assert Pid(1, 2) == Pid(1, 2)
    assert hash(Pid(1, 2)) == hash(Pid(1, 2))
    assert Pid(1, 2) != Pid(1, 3)


@pytest.mark.parametrize("lhid,index", [
    (0x0010, 0x0001), (0x0013, 0x0002), (0x00FF, 0x7F01 | 0x8000),
    (0xFFFF, 0x8001), (0, 0), (0xFFFF, 0xFFFF),
])
def test_pid_hashes_as_its_field_tuple(lhid, index):
    """Sets and dicts of pids iterate in the order the fields' tuple
    hash gives, in every process (ints hash unsalted)."""
    assert hash(Pid(lhid, index)) == hash((lhid, index))


def test_pid_orders_by_lhid_then_index():
    pids = [Pid(2, 1), Pid(1, 5), Pid(1, 2), Pid(0xFFFF, 0x8001)]
    assert sorted(pids) == [Pid(1, 2), Pid(1, 5), Pid(2, 1),
                            Pid(0xFFFF, 0x8001)]
    assert Pid(1, 2) < Pid(1, 3) <= Pid(1, 3) < Pid(2, 0)
    assert max(pids) == Pid(0xFFFF, 0x8001)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pid_survives_a_pickle_round_trip(protocol):
    """Parallel sweep workers ship pids back pickled: the copy is a
    ``Pid`` equal to, and hashing like, the original."""
    pid = Pid(0x0013, 0x0001 | GROUP_BIT)
    back = pickle.loads(pickle.dumps(pid, protocol=protocol))
    assert type(back) is Pid
    assert back == pid and hash(back) == hash(pid)
    assert back.is_group and back.logical_host_id == 0x0013
    assert copy.deepcopy(pid) == pid


def test_pid_is_immutable():
    pid = Pid(1, 2)
    with pytest.raises(AttributeError):
        pid.logical_host_id = 3
    with pytest.raises(AttributeError):
        pid.local_index = 3
    with pytest.raises(AttributeError):
        pid.extra = 1
    assert pid == Pid(1, 2)


def test_pid_repr_names_pids_and_groups():
    assert repr(Pid(0x13, 1)) == "<pid 0013:0001>"
    assert repr(PROGRAM_MANAGER_GROUP) == "<gid ffff:8001>"
    assert str(Pid(0x13, 1)) == f"{Pid(0x13, 1)}" == "<pid 0013:0001>"


def test_a_pid_renders_as_its_repr_in_json_artifacts(tmp_path):
    """A pid is a tuple, which JSON would write as a list: postmortem
    bundles and Chrome traces write its repr."""
    from repro.faults.invariants import InvariantChecker
    from repro.obs import FlightRecorder, load_postmortem
    from repro.obs.timeline import chrome_trace_events
    from repro.sim import Simulator

    pid = Pid(0x13, 1)
    checker = InvariantChecker(strict=False)
    FlightRecorder(str(tmp_path / "bundle")).attach(checker)
    checker._violate("at-most-once", "twice", at_us=0, sender=pid,
                     route=[pid, PROGRAM_MANAGER_GROUP], by={"pid": pid})
    (violation,) = load_postmortem(str(tmp_path / "bundle"))[
        "invariants"]["violations"]
    assert violation["detail"] == {
        "sender": "<pid 0013:0001>",
        "route": ["<pid 0013:0001>", "<gid ffff:8001>"],
        "by": {"pid": "<pid 0013:0001>"},
    }

    sim = Simulator()
    sim.trace.enable("*")
    sim.trace.record("ipc", "send", dst=pid)
    (event,) = [e for e in chrome_trace_events(sim.trace)
                if e["name"] == "send"]
    assert json.loads(json.dumps(event))["args"]["dst"] == "<pid 0013:0001>"


def test_group_bit_marks_group():
    assert not Pid(5, 7).is_group
    assert Pid(5, 7 | GROUP_BIT).is_group


def test_index_masks_group_bit():
    assert Pid(5, 7 | GROUP_BIT).index == 7


def test_local_kernel_server_group_is_group_with_lhid():
    gid = local_kernel_server_group(0x77)
    assert gid.is_group
    assert gid.logical_host_id == 0x77
    assert gid.index == KERNEL_SERVER_INDEX
    assert is_wellknown_local_group(gid)


def test_local_program_manager_group():
    gid = local_program_manager_group(0x12)
    assert gid.index == PROGRAM_MANAGER_INDEX
    assert is_wellknown_local_group(gid)


def test_program_manager_group_is_global():
    assert PROGRAM_MANAGER_GROUP.is_group
    assert PROGRAM_MANAGER_GROUP.is_global_group


def test_plain_pid_is_not_wellknown_group():
    assert not is_wellknown_local_group(Pid(5, 7))
    assert not is_wellknown_local_group(Pid(5, 7 | GROUP_BIT))


def test_group_id_same_format_as_pid():
    # Paper footnote 2: a process-group-id is identical in format.
    gid = local_kernel_server_group(0x42)
    roundtrip = Pid.from_int(gid.as_int())
    assert roundtrip == gid
