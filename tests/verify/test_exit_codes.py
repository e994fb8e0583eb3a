"""The comparison-CLI exit-code contract (S1): ``repro diff`` and
``repro verify`` share one set of codes, defined in one place
(:mod:`repro.obs.diff`): 0 compared clean, 1 compared different, 2
never compared (usage error)."""

import json

from repro.__main__ import main
from repro.obs.diff import EXIT_DIFFERENT, EXIT_OK, EXIT_USAGE
from repro.obs.report import new_report, write_report

SMALL = ["--messages", "3"]


def test_the_constants_are_the_documented_contract():
    assert (EXIT_OK, EXIT_DIFFERENT, EXIT_USAGE) == (0, 1, 2)


def _report(path, events):
    report = new_report("test", seed=0)
    report["kpis"] = {"events": events}
    write_report(report, str(path))
    return str(path)


def test_diff_exit_codes(tmp_path):
    a = _report(tmp_path / "a.json", 100)
    same = _report(tmp_path / "same.json", 100)
    moved = _report(tmp_path / "moved.json", 200)
    assert main(["diff", a, same]) == EXIT_OK
    assert main(["diff", a, moved]) == EXIT_DIFFERENT
    assert main(["diff", a, str(tmp_path / "missing.json")]) == EXIT_USAGE


def test_verify_exit_ok_on_clean_matrix(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--matrix", "sample:2", "--seed", "3",
                 "--out", str(out)] + SMALL)
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["ok"] and len(payload["cells"]) == 2


def test_verify_exit_different_on_planted_mutation(tmp_path):
    code = main(["verify", "--matrix", "sample:2", "--seed", "3",
                 "--mutate", "break-rebinding",
                 "--no-minimize"] + SMALL)
    assert code == EXIT_DIFFERENT


def test_verify_expect_fail_inverts_the_gate(tmp_path):
    failing = main(["verify", "--matrix", "sample:2", "--seed", "3",
                    "--mutate", "break-rebinding", "--expect-fail",
                    "--postmortem", str(tmp_path / "pm")] + SMALL)
    assert failing == EXIT_OK
    clean = main(["verify", "--matrix", "sample:2", "--seed", "3",
                  "--expect-fail"] + SMALL)
    assert clean == EXIT_DIFFERENT


def test_verify_usage_errors_exit_2(tmp_path, capsys):
    cases = [
        ["verify", "--matrix", "bogus"],
        ["verify", "--matrix", "sample:x"],
        ["verify", "--toggle", "warp_drive=on"],
        ["verify", "--toggle", "load_cache"],
        ["verify", "--toggle", "load_cache=sideways"],
        ["verify", "--mutate", "no-such-bug"],
        ["verify", "--replay", str(tmp_path / "not-a-bundle")],
    ]
    for argv in cases:
        assert main(argv) == EXIT_USAGE, argv
        assert capsys.readouterr().err.startswith("verify: ")


def test_verify_unwritable_out_exits_2(tmp_path, capsys):
    code = main(["verify", "--matrix", "sample:2", "--seed", "3",
                 "--out", str(tmp_path / "no" / "dir" / "x.json")] + SMALL)
    assert code == EXIT_USAGE
    assert "cannot write" in capsys.readouterr().err
