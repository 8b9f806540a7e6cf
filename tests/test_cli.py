import json
import sys
from collections import Counter

import pytest

from weightspec import IdentityViolation, jordan_blocks, make_weight_system, spectrum_direct
from weightspec import cli
from weightspec.cli import run
import weightspec.frobenius as frobenius_mod
import weightspec.gaussmanin as gaussmanin_mod
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
    # one digit past the int string conversion limit, where there is one
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        code, out, err = invoke(capsys, "spectrum", "-w", "1," + "9" * (limit + 1))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
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
        verify_mod.ALL_SUITES, "spectrum", lambda w, built: ["synthetic failure"]
    )
    code, out, _ = invoke(capsys, "verify", "-w", "1,2,3")
    assert code == 2
    assert "synthetic failure" in out


def test_builder_identity_violation_is_a_suite_failure(capsys, monkeypatch):
    # initial_data raises on a metric fault, so birkhoff, charpoly and
    # pairing, which all build it, fail through the builder
    def broken(n, sigma, partner):
        return ["synthetic metric fault"]

    monkeypatch.setattr(frobenius_mod, "metric_violations", broken)
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


def test_verify_pass_builds_each_fact_once(monkeypatch):
    counts = Counter()

    def counted(name, real):
        def build(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return build

    builders = (
        "spectrum_direct", "step_sequence", "jordan_blocks", "eigenvalue_classes", "saito_filtration",
        "initial_data", "_step_data",
    )
    for name in builders:
        monkeypatch.setattr(verify_mod, name, counted(name, getattr(verify_mod, name)))
    # a suite calling charpoly_A0 would build initial_data inside frobenius,
    # and one calling a public connection function the step record inside
    # gaussmanin
    monkeypatch.setattr(frobenius_mod, "initial_data", verify_mod.initial_data)
    monkeypatch.setattr(gaussmanin_mod, "_step_data", verify_mod._step_data)
    w = make_weight_system([5, 6, 7, 9, 11])
    assert verify_mod.verify_all(w) == {name: [] for name in verify_mod.ALL_SUITES}
    assert counts == dict.fromkeys(builders, 1)
    counts.clear()
    frobenius_suites = ["birkhoff", "charpoly", "pairing"]
    assert verify_mod.verify_all(w, frobenius_suites) == dict.fromkeys(frobenius_suites, [])
    assert counts["initial_data"] == 1
    # a pass keeps nothing for the next one
    verify_mod.verify_all(w, ["pairing"])
    assert counts["initial_data"] == 2
    # both connection kernels read the one step record, built once per
    # pass, so no suite looks the spectrum up per basis vector: a pass calls
    # spectrum_direct, cache hits and misses alike, 7 times at mu 38 and at
    # mu 96; a cached jordan_blocks would skip its own lookup, so it starts
    # cold
    lookups = []
    for weights in ([5, 6, 7, 9, 11], [7, 89]):
        jordan_blocks.cache_clear()
        counts.clear()
        before = spectrum_direct.cache_info()
        assert verify_mod.verify_all(make_weight_system(weights)) == {name: [] for name in verify_mod.ALL_SUITES}
        after = spectrum_direct.cache_info()
        lookups.append(after.hits + after.misses - before.hits - before.misses)
        assert counts["_step_data"] == 1, weights
    assert lookups == [7, 7], lookups


def test_verify_all_records_a_raised_identity(monkeypatch):
    def raising(w, built):
        raise IdentityViolation("x")

    monkeypatch.setitem(verify_mod.ALL_SUITES, "jordan", raising)
    w = make_weight_system([1, 2, 3])
    assert verify_mod.verify_all(w, ["jordan"]) == {"jordan": ["jordan: x"]}
    assert verify_mod.verify_all(w, []) == {}  # only None means every suite


def test_repeated_suite_runs_once(capsys, monkeypatch):
    # a suite named twice runs once, in first-seen order, with the output
    # of naming it once
    calls = []
    for name in ("reduction", "jordan"):
        real = verify_mod.ALL_SUITES[name]
        monkeypatch.setitem(
            verify_mod.ALL_SUITES, name, lambda w, built, name=name, real=real: calls.append(name) or real(w, built)
        )
    w = make_weight_system([1, 2, 3])
    assert list(verify_mod.verify_all(w, ["reduction", "jordan", "reduction"])) == ["reduction", "jordan"]
    assert calls == ["reduction", "jordan"]
    calls.clear()
    once = invoke(capsys, "verify", "-w", "1,2,3", "--suite", "jordan", "--suite", "reduction")
    twice = invoke(
        capsys, "verify", "-w", "1,2,3", "--suite", "jordan", "--suite", "reduction", "--suite", "jordan"
    )
    assert twice == once and once[0] == 0
    assert calls == ["jordan", "reduction"] * 2


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
        verify_mod.ALL_SUITES, "spectrum", lambda w, built: ["synthetic failure"]
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


def test_parser_is_built_once_and_reused(capsys):
    # --suite appends, the group remembers --all, and a usage error raises
    # mid-parse: none of it may leak into the next call on the same parser
    calls = [
        ("verify", "-w", "1,2,3", "--suite", "spectrum", "--format", "json"),
        ("verify", "-w", "1,2,3", "--all"),
        ("verify", "-w", "1,2,3", "--suite", "spectrum", "--all"),
        ("reflexive", "-n", "3", "--format", "csv"),
    ]
    cli._build_parser.cache_clear()
    reused = [invoke(capsys, *argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(invoke(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 1, 0]
    assert fresh[0][1].count('"spectrum"') == 1 and "jordan" not in fresh[0][1]
