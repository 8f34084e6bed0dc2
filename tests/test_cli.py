"""Command-line driver: exit codes, report formats, determinism."""

from __future__ import annotations

import hashlib
import io
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filicert import VERIFIED_NAMES, certificate_matrix
from filicert.cli import build_parser, main

from helpers import int_max_str_digits

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


@pytest.mark.parametrize("command", ["verify", "report"])
def test_all_together_with_names_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, command, "mu01", "--all")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_verify_unknown_name(capsys):
    code, _, err = run(capsys, "verify", "missing-name")
    assert code == 2
    assert "unknown algebra" in err


def test_verify_inert_metadata_is_an_input_error(capsys):
    code, _, err = run(capsys, "verify", "mu03-meta")
    assert code == 2
    assert "inert" in err


@pytest.mark.parametrize("command", ["verify", "invariants"])
def test_a_table_without_a_deformation_block_is_named_as_such(capsys, tmp_path, command):
    """A table with brackets and a certificate but no [deformation] block is
    not inert metadata: the message names the block that is missing."""
    from filicert.dataio import data_dir

    text = (data_dir() / "mu17").read_text(encoding="utf-8")
    head, _, rest = text.partition("[deformation]")
    (tmp_path / "mu17").write_text(head + rest[rest.index("[certificate]"):], encoding="utf-8")
    assert run(capsys, command, "mu17", "--data", str(tmp_path)) == \
        (2, "", "error: mu17 has no deformation block\n")


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
    # a negative value after a space is a value, not an option
    assert parse(["invariants", "--alpha", "-1/3"]).alpha == [Fraction(-1, 3)]
    assert parse(["invariants", "--t", "-2/3"]).t == [Fraction(-2, 3)]
    assert parse(["invariants", "--alpha", "-.5", "--alpha", "-2e-3"]).alpha == [
        Fraction(-1, 2), Fraction(-1, 500)]
    args = parse(["invariants", "mu06", "--alpha", "-1", "--t", "-2/3"])
    assert (args.names, args.alpha, args.t) == (["mu06"], [Fraction(-1)], [Fraction(-2, 3)])


def test_an_option_is_still_not_a_sample_value(capsys):
    with pytest.raises(SystemExit) as info:
        main(["invariants", "mu06", "--alpha", "--format", "machine"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: argument --alpha: expected one argument\n"


# -- counterexample -----------------------------------------------------------------

def test_counterexample_statement(capsys):
    code, out, _ = run(capsys, "counterexample")
    assert code == 0
    assert ("deformation valid: yes; degeneration certificate: none shipped; "
            "non-existence: asserted, unverified") in out
    assert "mu_D(Y1, Y2) = 0: yes" in out
    assert "solvable=yes nilpotent=no" in out


def test_counterexample_names_the_derivation_and_ideal_it_checks(capsys, tmp_path):
    """On a 4-dimensional mu17 the counterexample checks diag(0, 1, 1) on
    <Y2..Y4>, and its header says so."""
    (tmp_path / "mu17").write_text(
        "[algebra]\nname = mu17\ndim = 4\nparams =\n\n"
        "[brackets]\nbracket 1 2 = Y3\nbracket 1 3 = Y4\n", encoding="utf-8")
    code, out, err = run(capsys, "counterexample", "--data", str(tmp_path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "counterexample: mu17 with derivation diag(0, 1, 1) on the ideal <Y2..Y4>"
    assert lines[-1] == "  base algebra: lcs=(4,2,1,0) filiform=yes"


# -- report -----------------------------------------------------------------------------

def test_report_machine_grepable(capsys):
    code, out, _ = run(capsys, "report", "mu17", "--format", "machine")
    assert code == 0
    assert all(MACHINE_LINE.match(line) for line in out.splitlines())


@pytest.mark.parametrize("argv", [("verify", "mu17"), ("invariants", "mu17"),
                                  ("counterexample",), ("report", "mu17")],
                         ids=lambda argv: argv[0])
def test_report_writes_output_file(capsys, tmp_path, argv):
    """--output gets exactly the bytes stdout would have held, and stdout
    gets none."""
    code, out, _ = run(capsys, *argv)
    target = tmp_path / "report.txt"
    assert run(capsys, *argv, "--output", str(target)) == (code, "", "")
    assert code == 0
    assert target.read_bytes() == out.encode("utf-8")
    assert out.startswith("== degeneration certificates ==") == (argv[0] == "report")


@pytest.mark.parametrize("names", [("mu17",), ("mu01", "mu01")])
@pytest.mark.parametrize("report_format", ["text", "machine"])
def test_report_is_the_verify_section_then_the_invariants_section(
        capsys, names, report_format):
    """report prints what verify and invariants print on the same names, the
    two headed in text format, and exits with the worse code.  A repeated
    name gets one invariant block per mention, as in invariants."""
    options = ("--format", report_format)
    verify_code, verify_out, _ = run(capsys, "verify", *names, *options)
    invariants_code, invariants_out, _ = run(capsys, "invariants", *names, *options)
    if report_format == "text":
        expected = (f"== degeneration certificates ==\n{verify_out}\n"
                    f"== invariants ==\n{invariants_out}")
    else:
        expected = verify_out + invariants_out
    assert run(capsys, "report", *names, *options) == (
        max(verify_code, invariants_code), expected, "")


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


def test_non_integral_derivation_fails_the_spectrum_stage(capsys, tmp_path):
    """A D with a non-integral eigenvalue is a localized spectrum failure of
    its own table; the other tables are still verified.  The whole stdout is
    pinned: its eq1 residuals carry denominators that come from phi = mu_D,
    and the cleared eq1 kernel must divide them back exactly."""
    from filicert.dataio import data_dir

    (tmp_path / "mu06").write_text((data_dir() / "mu06").read_text(encoding="utf-8"))
    text = (data_dir() / "mu11").read_text(encoding="utf-8")
    assert "D = 1 2 3 4 5 6 7\n" in text
    (tmp_path / "mu11").write_text(text.replace("D = 1 2 3 4 5 6 7\n",
                                                "D = 1/2 2 3 4 5 6 7\n"))
    code, out, err = run(capsys, "verify", "mu06", "mu11", "--data", str(tmp_path))
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "mu06: PASS"
    assert lines[1].startswith("mu11: FAIL [") and "spectrum" in lines[1]
    assert "  spectrum: (): derivation eigenvalues must be integers" in lines
    assert "  eq1: (1, 2) component 5: 1/16*t^4 - 1/8*t^3 + 1/16*t^2" in lines
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "10b05dacab74f8824f834abb23a490d41f3d648d559a1d8ec46a7edcde6c0533"



def sibling_catalog(directory, corpus) -> list[str]:
    """Tables around mu06, mu08 and mu11 that share a deformation (an
    identical copy, a changed certificate cell) or differ from it in one
    part: a corrupted bracket, another D, and mu08 with parameter t, the
    non-reciprocal twin of its 1/t certificate.  Returns their names."""
    from dataclasses import replace

    from filicert.dataio import serialize_algebra
    from filicert.scalar import Scalar

    def changed_cell(alg, cell, offset):
        certificate = dict(alg.certificate)
        certificate[cell] = certificate.get(cell, Scalar()) + offset
        return replace(alg, certificate=certificate)

    mu06, mu08, mu11 = corpus["mu06"], corpus["mu08"], corpus["mu11"]
    brackets = dict(mu11.brackets)
    brackets[(2, 3)] = tuple(s + 1 if k == 4 else s for k, s in enumerate(brackets[(2, 3)]))
    block = mu11.deformation
    tables = {
        "mu06": mu06, "mu06-cell": changed_cell(mu06, (3, 1), Scalar.term(1, 1, 1)),
        "mu08": mu08, "mu08-cell": changed_cell(mu08, (5, 2), Scalar.term(2, 3)),
        "mu08-t": replace(mu08, certificate_parameter="t"),
        "mu11": mu11, "mu11-copy": mu11, "mu11-cell": changed_cell(mu11, (3, 1), 1),
        "mu11-bracket": replace(mu11, brackets=brackets),
        "mu11-d": replace(mu11, deformation=replace(
            block, diagonal=tuple(d + 1 for d in block.diagonal))),
    }
    for name, alg in tables.items():
        (directory / name).write_text(serialize_algebra(replace(alg, name=name)),
                                      encoding="utf-8")
    return sorted(tables)


SIBLING_OPTIONS = [(), ("--format", "machine"), ("--errata", "corrected"),
                   ("--errata", "corrected", "--format", "machine")]


@pytest.mark.parametrize("options", SIBLING_OPTIONS)
def test_verify_of_sibling_tables_is_the_concatenation_of_each_table(
        capsys, tmp_path, corpus, monkeypatch, options):
    """verify checks each distinct deformation once per command, which must
    not show: its stdout over the whole sibling catalog is the per-table
    stdouts concatenated, and its exit code the worst of theirs.  The ten
    tables hold six distinct deformations."""
    import filicert.cli

    names = sibling_catalog(tmp_path, corpus)
    data = ("--data", str(tmp_path), *options)
    alone = [run(capsys, "verify", name, *data) for name in names]
    assert {code for code, _, _ in alone} == {0, 1}
    checked, check_deformation = [], filicert.cli.check_deformation

    def counted(*args):
        checked.append(args)
        return check_deformation(*args)

    monkeypatch.setattr(filicert.cli, "check_deformation", counted)
    code, out, err = run(capsys, "verify", *names, *data)
    assert (code, out, err) == (max(c for c, _, _ in alone),
                                "".join(o for _, o, _ in alone), "")
    assert len(checked) == 6


def builds_per_command(capsys, tmp_path, corpus, monkeypatch, builder: str) -> list[int]:
    """How often deformation.<builder> runs in verify of the sibling catalog,
    verify --all, counterexample and invariants mu17."""
    import filicert.deformation as deformation

    built, build = [], getattr(deformation, builder)
    monkeypatch.setattr(deformation, builder,
                        lambda *args: built.append(args) or build(*args))
    names = sibling_catalog(tmp_path, corpus)
    counts = []
    for argv in (("verify", *names, "--data", str(tmp_path)), ("verify", "--all"),
                 ("counterexample",), ("invariants", "mu17")):
        built.clear()
        run(capsys, *argv)
        counts.append(len(built))
    return counts


def test_verify_clears_each_family_once_per_distinct_deformation(
        capsys, tmp_path, corpus, monkeypatch):
    """The cleared family (M, M*mu_1, M*family) of the eq1 kernel is built
    once per distinct deformation of a verify command, and never by
    counterexample or invariants, which check no certificate."""
    assert builds_per_command(capsys, tmp_path, corpus, monkeypatch,
                              "_clear_family") == [6, 10, 0, 0]


def test_verify_builds_each_spectrum_target_once_per_distinct_deformation(
        capsys, tmp_path, corpus, monkeypatch):
    """The same for the multiset of the t^(d_i), against which the spectrum
    stage cancels the roots of every certificate's block.  No command
    expands a product of factors: every bundled block is triangular up to a
    permutation, so no cyclic component is left to compare."""
    assert builds_per_command(capsys, tmp_path, corpus, monkeypatch,
                              "_spectrum_target") == [6, 10, 0, 0]
    assert builds_per_command(capsys, tmp_path, corpus, monkeypatch, "expand") == [0, 0, 0, 0]


def test_verify_applies_the_errata_once_per_algebra(capsys, monkeypatch):
    """In corrected mode verify applies each algebra's errata once, for its
    bracket and its certificate together."""
    import filicert.cli
    import filicert.dataio

    applied, apply_errata = [], filicert.dataio.apply_errata
    for module in (filicert.cli, filicert.dataio):
        monkeypatch.setattr(module, "apply_errata",
                            lambda alg: applied.append(alg.name) or apply_errata(alg))
    assert run(capsys, "verify", "--all", "--errata", "corrected")[0] == 0
    assert sorted(applied) == sorted(VERIFIED_NAMES)
    applied.clear()
    assert run(capsys, "verify", "--all")[0] == 1
    assert applied == []


@pytest.mark.parametrize("argv", [("verify", "--all"), ("invariants", "mu06", "--alpha", "2"),
                                  ("counterexample",), ("report", "mu06", "mu06")])
def test_each_command_loads_the_catalog_once(capsys, monkeypatch, argv):
    """Every command pays for one load_corpus, whatever it checks."""
    import filicert.cli

    loads, load_corpus = [], filicert.cli.load_corpus
    monkeypatch.setattr(filicert.cli, "load_corpus",
                        lambda *args: loads.append(args) or load_corpus(*args))
    code, _, err = run(capsys, *argv)
    assert code in (0, 1) and err == ""
    assert loads == [(None,)]


@pytest.mark.parametrize("options", SIBLING_OPTIONS)
def test_report_of_sibling_tables_is_the_concatenation_of_each_table(
        capsys, tmp_path, corpus, options):
    """The same for report, section by section: the certificate part (all
    records of a verify stage, in machine format) and then the invariants.
    The tables whose deformation is not valid are left out: report exits 2
    on them, in the invariant part."""
    from filicert.deformation import STAGES

    names = [name for name in sibling_catalog(tmp_path, corpus)
             if name not in ("mu11-bracket", "mu11-d")]
    data = ("--data", str(tmp_path), *options)

    def sections(out):
        if "machine" in options:
            lines = out.splitlines(keepends=True)
            verify = [line for line in lines if line.split()[1][len("stage="):] in STAGES]
            return "".join(verify), "".join(line for line in lines if line not in verify)
        head, _, tail = out.partition("\n== invariants ==\n")
        return head.removeprefix("== degeneration certificates ==\n"), tail

    alone = [run(capsys, "report", name, *data) for name in names]
    parts = [sections(out) for _, out, _ in alone]
    code, out, err = run(capsys, "report", *names, *data)
    assert (code, err) == (max(c for c, _, _ in alone), "")
    assert sections(out) == ("".join(v for v, _ in parts), "".join(i for _, i in parts))


def test_missing_data_directory(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--data", str(tmp_path / "nope"))
    assert code == 2
    assert "does not exist" in err


def test_counterexample_without_mu17_is_an_input_error(capsys, tmp_path):
    from filicert.dataio import data_dir

    (tmp_path / "mu06").write_text((data_dir() / "mu06").read_text(encoding="utf-8"))
    code, out, err = run(capsys, "counterexample", "--data", str(tmp_path))
    assert (code, out, err) == (2, "", "error: unknown algebra 'mu17'\n")


@pytest.mark.parametrize("command",[["verify", "mu17"], ["invariants", "mu17"],
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


def write_catalog(directory, table, replacements) -> dict[str, int]:
    """Write the bundled `table` into `directory` with each line that starts
    with a key of `replacements` replaced by its value, next to the bundled
    mu11 and mu17; the line number of each replaced line."""
    from filicert.dataio import data_dir

    for name in ("mu11", "mu17"):
        (directory / name).write_bytes((data_dir() / name).read_bytes())
    lines = (data_dir() / table).read_text(encoding="utf-8").splitlines()
    numbers = {}
    for prefix, line in replacements.items():
        index = next(k for k, row in enumerate(lines) if row.startswith(prefix))
        lines[index] = line
        numbers[prefix] = index + 1
    (directory / table).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return numbers


@pytest.mark.parametrize("table, prefix, line, message", [
    ("mu11", "bracket 1 2 =", "bracket 1 2 = alpha*Y3", "undeclared symbol 'alpha'"),
    ("mu11", "bracket 1 2 =", "bracket 1 2 = Y3 +",
     "unexpected token 'end of input' at column 19 (expected number, symbol, '(')"),
    ("mu11", "Y1 =", "Y1 = X8 + $", "unexpected character '$' at column 11"),
    ("mu11", "D =", "D = 1 2 3 t 5 6 7", "undeclared symbol 't'"),
    ("mu11", "D =", "D = 1 2  3 4/ 5 6 7", "missing denominator at column 14 (expected digit)"),
    ("mu11", "g 3 1 =", "g 3 1 =   t^(1/2)   # a comment",
     "unexpected token '(' at column 13 (expected number)"),
    ("mu08", "corrected =", "corrected = (5/7)*t^3*(t-1))",
     "unexpected trailing token ')' at column 28 (expected end of input)"),
    ("mu03-meta", "d 1 1 =", "d 1 1 = 4 4",
     "unexpected trailing token '4' at column 11 (expected end of input)"),
], ids=["bracket-symbol", "bracket-syntax", "basis-change-row", "D-symbol", "D-syntax",
        "g-cell", "errata-corrected", "derivation-cell"])
def test_expression_errors_name_the_file_and_the_line(capsys, tmp_path, table, prefix,
                                                      line, message):
    """An error in an evaluated text starts with <file>:<line>: like every
    structural error, and gives its column from the start of that line."""
    number = write_catalog(tmp_path, table, {prefix: line})[prefix]
    code, out, err = run(capsys, "verify", "mu11", "--data", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: {table}:{number}: {message}\n")


def test_a_repeated_parameter_line_is_an_input_error(capsys, tmp_path):
    number = write_catalog(tmp_path, "mu11", {
        "[certificate]": "[certificate]\nparameter = 1/t\nparameter = t"})["[certificate]"]
    code, out, err = run(capsys, "verify", "mu11", "--data", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: mu11:{number + 2}: duplicate key 'parameter'\n")


@pytest.mark.parametrize("table, word, prefix, value, message", [
    ("mu11", "bracket", "bracket 1 2 =", "Y3",
     "bracket indices (-1, 2) must satisfy 1 <= i < j <= 8"),
    ("mu11", "g", "g 3 1 =", "t", "certificate indices (-1, 1) out of range"),
    ("mu03-meta", "d", "d 1 1 =", "4", "derivation indices (-1, 1) out of range"),
], ids=["bracket", "g", "d"])
@pytest.mark.parametrize("index", ["--1", "x", "1-", "-", "-1"])
def test_a_bad_index_in_an_i_j_key_names_the_file_and_the_line(capsys, tmp_path, table,
                                                               word, prefix, value,
                                                               message, index):
    """An index is at most one '-' and digits; -1 is then out of range.  Any
    other text is a structural error of its line, never a traceback."""
    second = prefix.split()[2]
    number = write_catalog(tmp_path, table,
                           {prefix: f"{word} {index} {second} = {value}"})[prefix]
    if index != "-1":
        message = f"expected 2 integers after {word!r}"
    code, out, err = run(capsys, "verify", "mu11", "--data", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: {table}:{number}: {message}\n")


# Three mu11 catalogs whose deformation fails the ideal or derivation stage:
# the sha256 of `verify --format machine`, and the reason `invariants` and
# `report` give, which must not change as the checks are rearranged.
INVALID_DEFORMATIONS = {
    "wrong-codimension": (
        {"ideal =": "ideal = 3 4 5 6 7 8", "D =": "D = 2 3 4 5 6 7"},
        "b9a36246fde2354cd4a72d9cb2b2405d16e593176129f4ca6a63fbbdb55fd159",
        "the ideal must have codimension 1"),
    "not-an-ideal": (
        {"ideal =": "ideal = 1 2 3 4 5 6 7", "outside =": "outside = 8"},
        "9371e0aaa9494eafc246cf8cc49f79ace4eb4e190a6eede64c80343ff12d2e04",
        "the chosen subspace is not an ideal"),
    "not-a-derivation": (
        {"D =": "D = 1 1 1 1 1 1 1"},
        "3f591477508830a1e9f23bc3ebf85b88a14271c947c1f37665e8c07bbda5f57b",
        "the matrix is not a derivation of the ideal"),
}


@pytest.mark.parametrize("case", sorted(INVALID_DEFORMATIONS))
def test_an_invalid_deformation_is_reported_by_verify_and_rejected_by_invariants(
        capsys, tmp_path, case):
    replacements, digest, reason = INVALID_DEFORMATIONS[case]
    write_catalog(tmp_path, "mu11", replacements)
    code, out, err = run(capsys, "verify", "mu11", "--data", str(tmp_path),
                         "--format", "machine")
    assert (code, err) == (1, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    for command in ("invariants", "report"):
        assert run(capsys, command, "mu11", "--data", str(tmp_path)) == \
            (2, "", f"error: {reason}\n")


@pytest.mark.parametrize("errata", ["verbatim", "corrected"])
def test_counterexample_on_a_mu17_whose_ideal_is_broken(capsys, tmp_path, errata):
    """[Y2, Y3] gains a Y1 term, so <Y2..Y8> is no longer an ideal."""
    write_catalog(tmp_path, "mu17", {"bracket 2 3 =": "bracket 2 3 = Y1 + Y4"})
    assert run(capsys, "counterexample", "--data", str(tmp_path), "--errata", errata) == \
        (2, "", "error: the chosen subspace is not an ideal\n")


def test_counterexample_on_a_mu17_that_keeps_alpha(capsys, tmp_path):
    """The counterexample specializes only t, so an alpha in mu17's brackets
    is still symbolic in the family and is named with its entry."""
    write_catalog(tmp_path, "mu17", {"params =": "params = alpha",
                                     "bracket 1 2 =": "bracket 1 2 = -Y3 + alpha*Y8"})
    assert run(capsys, "counterexample", "--data", str(tmp_path)) == \
        (2, "", "error: entry (1, 2) still symbolic after specialization: alpha\n")


@pytest.mark.parametrize("cell", ["(1+t)^4000", "((1+t)^64)^64", "t^-65",
                                  "((((7^64)^64)^64)^64)"])
def test_oversized_expressions_are_rejected_at_parse_time(capsys, tmp_path, cell):
    assert_cell_rejected(capsys, tmp_path, cell, "power")


def test_oversized_products_are_rejected_at_parse_time(capsys, tmp_path):
    assert_cell_rejected(capsys, tmp_path, "*".join(["(1+t)^64"] * 12), "product")


@pytest.mark.parametrize("cell", ["0^" + "9" * 1234, "(t-t)^99999999"])
def test_huge_powers_of_zero_are_zero_at_parse_time(capsys, tmp_path, cell):
    """A power of zero passes the size bound at any exponent; it is read as 0
    (by square and multiply, so within 1 s), exactly as the cell 0 is."""
    line = write_mu11_cell(tmp_path, "0")
    expected = run(capsys, "verify", "mu11", "--data", str(tmp_path))
    assert write_mu11_cell(tmp_path, cell) == line
    start = time.perf_counter()
    assert run(capsys, "verify", "mu11", "--data", str(tmp_path)) == expected
    assert time.perf_counter() - start < 1.0


def write_mu11_cell(tmp_path, cell) -> int:
    """Write mu11 with cell (3, 1) set to `cell` into tmp_path; its line."""
    return write_catalog(tmp_path, "mu11", {"g 3 1 =": f"g 3 1 = {cell}"})["g 3 1 ="]


def assert_cell_rejected(capsys, tmp_path, cell, kind):
    """verify mu11 with cell (3, 1) set to `cell` exits 2 within 1 s, with
    one line naming the oversized `kind` of expression."""
    line = write_mu11_cell(tmp_path, cell)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "mu11", "--data", str(tmp_path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert re.fullmatch(rf"error: mu11:{line}: {kind} too large: .*\n", err)


@pytest.mark.parametrize("command", [("verify", "mu11"), ("invariants", "mu11"),
                                     ("report", "mu11"), ("counterexample",)])
def test_deeply_nested_parentheses_are_an_input_error(capsys, tmp_path, command):
    """400 nested parentheses in a certificate cell exit 2 with one line
    naming the file, the line, and the column in that line of the first one
    too many."""
    from filicert.dataio import MAX_NESTING, data_dir

    for name in ("mu11", "mu17"):
        (tmp_path / name).write_text((data_dir() / name).read_text(encoding="utf-8"),
                                     encoding="utf-8")
    lines = (tmp_path / "mu11").read_text(encoding="utf-8").splitlines()
    line = next(n for n, row in enumerate(lines, start=1) if row.startswith("g 3 3 ="))
    lines[line - 1] = "g 3 3 = " + "(" * 400 + "t" + ")" * 400
    (tmp_path / "mu11").write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, *command, "--data", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == (f"error: mu11:{line}: parentheses nested more than {MAX_NESTING} deep "
                   f"at column {len('g 3 3 = ') + 1 + MAX_NESTING}\n")


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


def test_a_determinant_past_the_int_to_str_limit_is_rendered_exactly(capsys, tmp_path):
    """mu06 with one more term N*t^(k+1), N = 2^4000 + 1, in each of its
    certificate's cells t^k at (1, 1) .. (4, 4): det g has coefficients of
    more digits than the interpreter converts to str by default, and verify
    renders them in full, in both formats, instead of failing with a
    traceback."""
    from filicert.dataio import compact, data_dir, load_algebra

    text = (data_dir() / "mu06").read_text(encoding="utf-8")
    for cell, k in (("g 1 1 = t", 1), ("g 2 2 = t", 1), ("g 3 3 = t^3", 3), ("g 4 4 = t^4", 4)):
        assert f"\n{cell}\n" in text
        text = text.replace(f"\n{cell}\n", f"\n{cell}+{2 ** 4000 + 1}*t^{k + 1}\n", 1)
    (tmp_path / "mu06").write_text(text, encoding="utf-8")
    with int_max_str_digits(0):
        expected = str(certificate_matrix(load_algebra(tmp_path / "mu06")).det())
    assert max(len(digits) for digits in re.findall(r"\d+", expected)) > 4300
    code, out, err = run(capsys, "verify", "mu06", "--data", str(tmp_path))
    assert (code, err) == (1, "")
    assert f"  unit-det: (): det = {expected}" in out.splitlines()
    code, out, err = run(capsys, "verify", "mu06", "--data", str(tmp_path), "--format", "machine")
    assert (code, err) == (1, "")
    assert (f"algebra=mu06 stage=unit-det verdict=fail detail=indices=;residual=det="
            f"{compact(expected)}") in out.splitlines()


# -- the exit-code contract under single-line mutations of the catalog -----------

PIECES = [b"$", b"#", b"=", b"[", b"]", b"/0", b"^-", b"(", b")", b"-", b"0", b"alpha",
          b"t^-1", b"*Y1", b"Y9", b"^4097", b"*(1+t)^64*(1+t)^64", b"9" * 1300,
          "٣".encode(), "²".encode(), b"\t", b"\r", b"\xff", b"[brackets]",
          b"bracket 1 2 = Y3", b"g 9 9 = 1", b"dim = 99", b"D = 1/2 2 3 4 5 6 7"]


@st.composite
def single_line_mutations(draw):
    """A certified table's file with one line's byte range [start, end)
    replaced by a piece: an insertion, a deletion or a replacement."""
    from filicert.dataio import VERIFIED_NAMES, data_dir

    name = draw(st.sampled_from(VERIFIED_NAMES))
    lines = (data_dir() / name).read_bytes().split(b"\n")
    index = draw(st.integers(0, len(lines) - 1))
    line = lines[index]
    start = draw(st.integers(0, len(line)))
    end = draw(st.integers(start, len(line)))
    piece = draw(st.one_of(st.sampled_from(PIECES), st.binary(max_size=6)))
    lines[index] = line[:start] + piece + line[end:]
    return name, b"\n".join(lines)


def text_bytes(max_size):
    """The UTF-8 encoding of arbitrary text: bytes that get past the decoder."""
    return st.text(max_size=max_size).map(str.encode)


@st.composite
def whole_files(draw):
    """A certified table's name and a whole file for it: arbitrary bytes, or
    the table's own lines, of which one in `keep` on average is kept and the
    others are spliced with arbitrary bytes or replaced by a piece above or
    by arbitrary bytes."""
    from filicert.dataio import VERIFIED_NAMES, data_dir

    name = draw(st.sampled_from(VERIFIED_NAMES))
    if draw(st.booleans()):
        return name, draw(st.one_of(st.binary(max_size=2000), text_bytes(2000)))
    keep = draw(st.sampled_from((2, 8, 40)))
    lines = []
    for line in (data_dir() / name).read_bytes().split(b"\n"):
        action = draw(st.integers(0, keep + 2))
        if action == keep:
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.one_of(st.binary(max_size=6), text_bytes(6))) + line[at:]
        elif action == keep + 1:
            line = draw(st.sampled_from(PIECES))
        elif action == keep + 2:
            line = draw(st.one_of(st.binary(max_size=12), text_bytes(12)))
        lines.append(line)
    return name, b"\n".join(lines)


@settings(max_examples=60, deadline=timedelta(seconds=3))
@given(single_line_mutations())
def test_a_mutated_catalog_file_exits_0_1_or_2_with_one_error_line(tmp_path_factory, mutation):
    assert_exits_0_1_or_2_with_one_error_line(tmp_path_factory, *mutation)


@settings(max_examples=30, deadline=timedelta(seconds=3))
@given(whole_files())
def test_a_catalog_file_of_arbitrary_bytes_exits_0_1_or_2_with_one_error_line(
        tmp_path_factory, file):
    assert_exits_0_1_or_2_with_one_error_line(tmp_path_factory, *file)


def assert_exits_0_1_or_2_with_one_error_line(tmp_path_factory, name, data):
    """verify, invariants and counterexample on a catalog of the file `data`
    named `name`, next to the bundled mu17 unless it replaces it."""
    from filicert.dataio import data_dir

    directory = tmp_path_factory.mktemp("catalog")
    (directory / name).write_bytes(data)
    if name != "mu17":
        (directory / "mu17").write_bytes((data_dir() / "mu17").read_bytes())
    for argv in (["verify", name], ["invariants", name, "--alpha", "2", "--t", "1"],
                 ["counterexample"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--data", str(directory)])
        assert code in (0, 1, 2), argv
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
            assert err.getvalue().endswith("\n") and out.getvalue() == ""
        else:
            assert err.getvalue() == "", argv
