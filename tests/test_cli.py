"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


def test_info_command(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "SOSP 1985" in out
    assert "3.01 s/MB" in out or "s/MB" in out
    assert "100 us/op" in out


def test_demo_command(capsys):
    assert main(["demo", "--workstations", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "tex: exit 0" in out
    assert "migrateprog" in out
    assert "simulated seconds" in out


def test_migrate_command(capsys):
    assert main(["migrate", "--program", "optimizer"]) == 0
    out = capsys.readouterr().out
    assert "pre-copy round 0" in out
    assert "freeze time" in out
    assert "frozen residual" in out


def test_trace_command_emits_chrome_trace(tmp_path, capsys):
    import json

    out_file = tmp_path / "timeline.json"
    assert main(["trace", "--program", "optimizer",
                 "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    # The freeze span's duration is checked against MigrationStats live.
    assert "freeze span:" in out and "==" in out
    assert "self-profile" in out
    assert ("routing summary\n"
            "  binding cache     10/13 hits (77%)\n"
            "  rx batching       14 deliveries coalesced\n") in out

    payload = json.loads(out_file.read_text())
    events = payload["traceEvents"]
    assert any(e["ph"] == "X" and e["name"] == "freeze" for e in events)
    assert any(e["ph"] == "M" for e in events)
    assert payload["otherData"]["metrics"]["cluster"]["mig.migrations"] == 1


def test_default_is_demo(capsys):
    assert main([]) == 0
    assert "simulated seconds" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
