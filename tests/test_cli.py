"""Command-line driver: exit codes, report formats, determinism."""

from __future__ import annotations

import re
import time
from fractions import Fraction

import pytest

from filicert.cli import build_parser, main

MACHINE_LINE = re.compile(
    r"^algebra=\S+ stage=\S+ verdict=(pass|fail) detail=\S.*$")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify ---------------------------------------------------------------------

def test_verify_all_verbatim_localizes_the_misprint(capsys):
    code, out, _ = run(capsys, "verify", "--all")
    assert code == 1
    lines = out.splitlines()
    assert sum(1 for line in lines if line.endswith(": PASS")) == 9
    assert any(line.startswith("mu08: FAIL [eq1]") for line in lines)
    assert any("component" in line for line in lines)


def test_verify_all_corrected_passes(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--errata", "corrected")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert all(line.endswith(": PASS") for line in lines)


def test_verify_single_algebra(capsys):
    code, out, _ = run(capsys, "verify", "mu11")
    assert code == 0
    assert out.splitlines() == ["mu11: PASS"]


def test_verify_unknown_name(capsys):
    code, _, err = run(capsys, "verify", "missing-name")
    assert code == 2
    assert "unknown algebra" in err


def test_verify_inert_metadata_is_an_input_error(capsys):
    code, _, err = run(capsys, "verify", "mu03-meta")
    assert code == 2
    assert "inert" in err


def test_verify_machine_format(capsys):
    code, out, _ = run(capsys, "verify", "mu15", "--format", "machine")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9  # one record per stage
    assert all(MACHINE_LINE.match(line) for line in lines)
    assert any("stage=unit-det" in line and "det=t^29" in line for line in lines)


def test_verify_machine_format_carries_residuals(capsys):
    code, out, _ = run(capsys, "verify", "mu08", "--format", "machine")
    assert code == 1
    fail_lines = [line for line in out.splitlines() if "verdict=fail" in line]
    assert fail_lines
    assert all("residual=" in line for line in fail_lines)
    assert all(MACHINE_LINE.match(line) for line in out.splitlines())


# -- invariants -------------------------------------------------------------------

def test_invariants_report_content(capsys):
    code, out, _ = run(capsys, "invariants", "mu15")
    assert code == 0
    assert "filiform yes" in out
    assert "lcs=(8,6,5,4,3,2,1,0)" in out
    assert "solvable yes" in out
    assert "non-nilpotent yes" in out
    assert "note:" in out


def test_invariants_single_alpha_sample(capsys):
    code, out, _ = run(capsys, "invariants", "mu06", "--alpha", "2")
    assert code == 0
    assert "char-nilpotent yes" in out


def test_invariants_reports_the_exceptional_parameter(capsys):
    code, out, _ = run(capsys, "invariants", "mu06", "--alpha", "-1")
    assert code == 1
    assert "char-nilpotent NO" in out


def test_invariants_rejects_t_zero(capsys):
    code, _, err = run(capsys, "invariants", "mu17", "--t", "0")
    assert code == 2
    assert "exclude 0" in err


def test_invariants_rejects_non_rational_sample(capsys):
    with pytest.raises(SystemExit) as info:
        main(["invariants", "mu17", "--t", "x"])
    assert info.value.code == 2


@pytest.mark.parametrize("option, value", [("--alpha", "1e100000000"), ("--t", "1/1e5000")])
def test_rational_samples_are_bounded_like_catalog_literals(capsys, option, value):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        main(["invariants", "mu06", option, value])
    assert time.perf_counter() - start < 1.0
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_rational_samples_in_every_form_still_parse():
    parse = build_parser().parse_args
    assert parse(["invariants", "--alpha", "1e3"]).alpha == [Fraction(1000)]
    assert parse(["invariants", "--alpha=-1/3"]).alpha == [Fraction(-1, 3)]
    assert parse(["invariants", "--t", "2"]).t == [Fraction(2)]


# -- counterexample -----------------------------------------------------------------

def test_counterexample_statement(capsys):
    code, out, _ = run(capsys, "counterexample")
    assert code == 0
    assert ("deformation valid: yes; degeneration certificate: none shipped; "
            "non-existence: asserted, unverified") in out
    assert "mu_D(Y1, Y2) = 0: yes" in out
    assert "solvable=yes nilpotent=no" in out


# -- report -----------------------------------------------------------------------------

def test_report_machine_grepable(capsys):
    code, out, _ = run(capsys, "report", "mu17", "--format", "machine")
    assert code == 0
    assert all(MACHINE_LINE.match(line) for line in out.splitlines())


def test_report_writes_output_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code = main(["report", "mu17", "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text().startswith("== degeneration certificates ==")


def test_repeated_runs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "report", "mu15", "mu17", "--format", "machine")
    _, second, _ = run(capsys, "report", "mu15", "mu17", "--format", "machine")
    assert first == second


def test_custom_data_directory(capsys, tmp_path, corpus):
    from filicert.dataio import serialize_algebra

    for name in ("mu17",):
        (tmp_path / name).write_text(serialize_algebra(corpus[name]))
    code, out, _ = run(capsys, "verify", "mu17", "--data", str(tmp_path))
    assert code == 0
    assert out.splitlines() == ["mu17: PASS"]


def test_non_utf8_catalog_file_is_an_input_error(capsys, tmp_path, corpus):
    from filicert.dataio import serialize_algebra

    (tmp_path / "mu17").write_text(serialize_algebra(corpus["mu17"]))
    (tmp_path / "mu99").write_bytes(b"\xff\xfe[algebra]\n")
    code, out, err = run(capsys, "verify", "mu17", "--data", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: mu99: not UTF-8 text")
    assert err.count("\n") == 1


def test_missing_data_directory(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--data", str(tmp_path / "nope"))
    assert code == 2
    assert "does not exist" in err


@pytest.mark.parametrize("command", [["verify", "mu17"], ["invariants", "mu17"],
                                     ["counterexample"], ["report", "mu17"]])
def test_outside_index_inside_the_ideal_is_an_input_error(capsys, tmp_path, corpus, command):
    from dataclasses import replace

    from filicert.dataio import serialize_algebra

    alg = corpus["mu17"]
    broken = replace(alg, deformation=replace(alg.deformation, outside=2))
    (tmp_path / "mu17").write_text(serialize_algebra(broken))
    code, out, err = run(capsys, *command, "--data", str(tmp_path))
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: mu17:\d+: outside = 2 lies inside the ideal "
                        r"\(2 3 4 5 6 7 8\)\n", err)


@pytest.mark.parametrize("cell", ["(1+t)^4000", "((1+t)^64)^64", "t^-65",
                                  "((((7^64)^64)^64)^64)"])
def test_oversized_expressions_are_rejected_at_parse_time(capsys, tmp_path, cell):
    assert_cell_rejected(capsys, tmp_path, cell, "power")


def test_oversized_products_are_rejected_at_parse_time(capsys, tmp_path):
    assert_cell_rejected(capsys, tmp_path, "*".join(["(1+t)^64"] * 12), "product")


def assert_cell_rejected(capsys, tmp_path, cell, kind):
    """verify mu11 with cell (3, 1) set to `cell` exits 2 within 1 s, with
    one line naming the oversized `kind` of expression."""
    from filicert.dataio import data_dir

    text = (data_dir() / "mu11").read_text(encoding="utf-8")
    line = next(n for n, row in enumerate(text.splitlines(), start=1)
                if row.startswith("g 3 1 ="))
    lines = text.splitlines()
    lines[line - 1] = f"g 3 1 = {cell}"
    (tmp_path / "mu11").write_text("\n".join(lines) + "\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "mu11", "--data", str(tmp_path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert re.fullmatch(rf"error: {kind} at line {line} too large: .*\n", err)


def test_dimension_is_bounded(capsys, tmp_path):
    (tmp_path / "big").write_text("[algebra]\nname = big\n\ndim = 100000000\n")
    code, out, err = run(capsys, "invariants", "big", "--data", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == "error: big:4: dim must be an integer from 1 to 16\n"


@pytest.mark.parametrize("old, new", [("dim = 8", "dim = ²"),
                                      ("bracket 1 3 = -Y5", "bracket 1 3 = -²*Y5"),
                                      ("bracket 1 3 =", "bracket 1 ³ ="),
                                      ("outside = 1", "outside = ¹")])
def test_non_ascii_digits_are_an_input_error(capsys, tmp_path, old, new):
    from filicert.dataio import data_dir

    text = (data_dir() / "mu11").read_text(encoding="utf-8")
    assert old in text
    (tmp_path / "mu11").write_text(text.replace(old, new, 1), encoding="utf-8")
    code, out, err = run(capsys, "verify", "mu11", "--data", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


LONG_LITERAL = "9" * 5000  # more digits than Python converts to int by default


@pytest.mark.parametrize("table, prefix, line", [
    ("mu11", "g 3 1 =", f"g 3 1 = {LONG_LITERAL}"),
    ("mu11", "g 3 1 =", f"g 3 1 = 1/{LONG_LITERAL}"),
    ("mu11", "bracket 1 2 =", f"bracket 1 2 = {LONG_LITERAL}*Y3"),
    ("mu11", "bracket 1 2 =", f"bracket 1 2 = Y{LONG_LITERAL}"),
    ("mu11", "ideal =", f"ideal = 2 3 4 5 6 7 {LONG_LITERAL}"),
    ("mu11", "outside =", f"outside = {LONG_LITERAL}"),
    ("mu11", "Y1 =", f"Y{LONG_LITERAL} = X8"),
    ("mu11", "g 3 1 =", f"g 3 {LONG_LITERAL} = 1"),
    ("mu08", "entry =", f"entry = g 2 {LONG_LITERAL}"),
], ids=["g-cell", "g-denominator", "bracket-coefficient", "basis-symbol", "ideal",
        "outside", "basis-change-key", "g-index", "errata-entry"])
def test_overlong_digit_runs_are_an_input_error(capsys, tmp_path, table, prefix, line):
    from filicert.dataio import data_dir

    lines = (data_dir() / table).read_text(encoding="utf-8").splitlines()
    target = next(k for k, row in enumerate(lines) if row.startswith(prefix))
    lines[target] = line
    (tmp_path / table).write_text("\n".join(lines) + "\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", table, "--data", str(tmp_path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
