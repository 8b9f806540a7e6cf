import json

import pytest

from weightspec import IdentityViolation, make_weight_system
from weightspec.cli import run
import weightspec.frobenius as frobenius_mod
import weightspec.report as report_mod
import weightspec.verify as verify_mod


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_json(capsys):
    code, out, err = invoke(capsys, "spectrum", "-w", "1,1,1", "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["payload"]["spectrum"]["sigma"] == [
        {"den": 1, "num": 0},
        {"den": 1, "num": 1},
        {"den": 1, "num": 2},
    ]
    assert doc["input"] == {"weights": [1, 1, 1], "mu": 3, "n": 2}


def test_gcd_failure_exit_code(capsys):
    code, out, err = invoke(capsys, "spectrum", "-w", "2,4,6")
    assert code == 1
    assert "gcd is 2, not 1" in err
    assert out == ""


def test_gcd_normalize_flag(capsys):
    code, out, err = invoke(
        capsys, "spectrum", "-w", "2,4,6", "--allow-gcd-normalize", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["weights"] == [1, 2, 3]
    assert any("common factor 2" in msg for msg in doc["warnings"])


def test_unknown_flag_exits_1(capsys):
    code, _, err = invoke(capsys, "spectrum", "-w", "1,2,3", "--bogus")
    assert code == 1
    assert err.startswith("error:")


def test_unknown_subcommand_exits_1(capsys):
    code, _, _ = invoke(capsys, "eigenvalues")
    assert code == 1


def test_bad_weight_text_exits_1(capsys):
    # int() alone would read "1_0" as 10 and Arabic-Indic digits as 1, 2
    for text in ("1,x,3", "1,,2", ",1,2", "1,2,", "1_0,1", "\u0661,\u0662", "1.0,2"):
        code, out, err = invoke(capsys, "spectrum", "-w", text)
        assert code == 1 and out == ""
        assert "error:" in err
    # surrounding whitespace and a plus sign stay accepted
    spaced = invoke(capsys, "spectrum", "-w", " 1, +2 ")
    assert spaced == invoke(capsys, "spectrum", "-w", "1,2") and spaced[0] == 0
    code, _, err = invoke(capsys, "spectrum", "-w", "1,-2")
    assert code == 1 and "weights must be positive, got -2" in err


def test_verify_ok(capsys):
    code, out, _ = invoke(capsys, "verify", "-w", "1,2,3", "--all")
    assert code == 0
    assert "spectrum" in out and "failed" not in out


def test_verify_selected_suite_json(capsys):
    code, out, _ = invoke(
        capsys, "verify", "-w", "1,1,3", "--suite", "bernstein", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["verify-summary"]["suites"] == {"bernstein": "ok"}


def test_verify_failure_exits_2(capsys, monkeypatch):
    monkeypatch.setitem(
        verify_mod.ALL_SUITES, "spectrum", lambda w: ["synthetic failure"]
    )
    code, out, _ = invoke(capsys, "verify", "-w", "1,2,3")
    assert code == 2
    assert "synthetic failure" in out


def test_builder_identity_violation_is_a_suite_failure(capsys, monkeypatch):
    # initial_data raises on a metric fault, so birkhoff and charpoly fail
    # through the builder and pairing through its own report
    def broken(n, sigma, partner):
        return ["synthetic metric fault"]

    monkeypatch.setattr(frobenius_mod, "metric_violations", broken)
    monkeypatch.setattr(verify_mod, "metric_violations", broken)
    code, out, err = invoke(capsys, "verify", "-w", "1,2,3", "--all")
    assert code == 2 and err == ""
    assert [line for line in out.splitlines() if "FAILED" in line] == [
        "FAILED: birkhoff: synthetic metric fault",
        "FAILED: charpoly: synthetic metric fault",
        "FAILED: pairing: synthetic metric fault",
    ]
    statuses = dict(line.split() for line in out.splitlines()[1:13])
    assert [s for s, status in statuses.items() if status != "ok"] == [
        "birkhoff", "charpoly", "pairing"
    ]


def test_verify_all_records_a_raised_identity(monkeypatch):
    def raising(w):
        raise IdentityViolation("x")

    monkeypatch.setitem(verify_mod.ALL_SUITES, "jordan", raising)
    w = make_weight_system([1, 2, 3])
    assert verify_mod.verify_all(w, ["jordan"]) == {"jordan": ["jordan: x"]}
    assert verify_mod.verify_all(w, []) == {}  # only None means every suite


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize(
    "command, builder",
    [
        ("spectrum", "spectrum_direct"),
        ("frobenius", "initial_data"),
        ("jordan", "jordan_blocks"),
        ("filtrations", "saito_filtration"),
    ],
)
def test_report_identity_violation_exits_2(capsys, monkeypatch, command, builder, fmt):
    def raising(w):
        raise IdentityViolation("synthetic")

    monkeypatch.setattr(report_mod, builder, raising)
    code, out, err = invoke(capsys, command, "-w", "1,2,3", "--format", fmt)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")


def test_reflexive_table(capsys):
    code, out, _ = invoke(capsys, "reflexive", "-n", "3")
    assert code == 0
    assert "1 6 14 21 | 42" in out.splitlines()


def test_reflexive_row_count_dim2(capsys):
    code, out, _ = invoke(capsys, "reflexive", "-n", "2")
    assert code == 0
    assert out.splitlines() == ["1 1 1 | 3", "1 1 2 | 4", "1 2 3 | 6"]


def test_reflexive_csv_header(capsys):
    code, out, _ = invoke(capsys, "reflexive", "-n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "w0,w1,w2,w3,mu"
    code, out, _ = invoke(capsys, "reflexive", "-n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "w0,w1,w2,mu"


def test_reflexive_too_large_exits_1(capsys):
    code, _, err = invoke(capsys, "reflexive", "-n", "9")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "-w", "1,1,3", "--format", "json"],
        ["frobenius", "-w", "1,1,2", "--format", "json"],
        ["jordan", "-w", "1,2,3", "--format", "json"],
        ["filtrations", "-w", "1,1,3", "--format", "json"],
        ["reflexive", "-n", "2", "--format", "json"],
        ["verify", "-w", "1,1,2", "--format", "json"],
    ],
)
def test_json_round_trip_byte_identical(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out


def test_no_floats_in_json(capsys):
    run(["frobenius", "-w", "1,1,3", "--format", "json"])
    out = capsys.readouterr().out

    def walk(node):
        if isinstance(node, float):
            raise AssertionError("float in payload")
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(json.loads(out))


def test_table_formats_render(capsys):
    for argv in (
        ["spectrum", "-w", "1,1,3"],
        ["frobenius", "-w", "1,1,3"],
        ["jordan", "-w", "1,1,3"],
        ["filtrations", "-w", "1,1,3"],
        ["spectrum", "-w", "1,1,3", "--format", "csv"],
        ["jordan", "-w", "1,1,3", "--format", "csv"],
    ):
        code = run(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip()


def test_verify_csv_prints_csv(capsys):
    code, out, _ = invoke(capsys, "verify", "-w", "1,2,3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite,status"
    assert lines[1:3] == ["spectrum,ok", "periodicity,ok"]
    assert len(lines) == 13


def test_verify_csv_keeps_failed_lines(capsys, monkeypatch):
    monkeypatch.setitem(
        verify_mod.ALL_SUITES, "spectrum", lambda w: ["synthetic failure"]
    )
    code, out, _ = invoke(capsys, "verify", "-w", "1,2,3", "--suite", "spectrum", "--format", "csv")
    assert code == 2
    assert out == "suite,status\nspectrum,failed\nFAILED: synthetic failure\n"


def test_verify_all_and_suite_are_exclusive(capsys):
    code, out, err = invoke(capsys, "verify", "-w", "1,2,3", "--suite", "spectrum", "--all")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "not allowed with" in err
    code, out, _ = invoke(capsys, "verify", "-w", "1,2,3", "--all")
    assert code == 0 and len(out.splitlines()) == 13
    code, out, _ = invoke(capsys, "verify", "-w", "1,2,3", "--suite", "spectrum", "--suite", "jordan")
    assert code == 0 and out.split() == ["suite", "status", "spectrum", "ok", "jordan", "ok"]
