"""Whole-program checks: pinned stdout of the certify, invariants and report
commands and of residual rendering, pinned derivation algebras, and the demos."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dataclasses import replace

from filicert import VERIFIED_NAMES, RationalAlgebra, Scalar, structure_constants
from filicert.cli import DEFAULT_ALPHA_SAMPLES, main
from filicert.dataio import apply_errata, data_dir, parse_scalar, serialize_algebra
from filicert.invariants import derivation_algebra

ROOT = Path(__file__).resolve().parent.parent
PINS = json.loads((ROOT / "bench" / "stdout_sha256.json").read_text(encoding="utf-8"))
# sha256 of the stdout of the whole-catalog invariant suite, and of the Der
# bases of the 26 base specializations serialized as in the test below.
CATALOG_INVARIANTS = {
    "invariants": "a42882a20e8b845ca72cd20a59be84c9044e724cdd26625ae225a44078424617",
    "invariants --format machine":
        "3d661ffd90dcbafb9adcb01ab50abe2b2f166f856e307a6452f3c8e9584d2a61",
}
# sha256 of the stdout of `report --all` in both errata modes and formats.
REPORT = {
    "report --all": "3b6e1aaf91c4d75996709fec255c4c688f60691051b5c665bd037aae78440586",
    "report --all --format machine":
        "ee03f9abb5af1599f5093c8b6535b266384be6a5f59a0829a13f881600ec4ccb",
    "report --all --errata corrected":
        "408694c67c0db3a80776bb48ad7a98ddfedd8bd450f3205edccb1d9d2f7453b5",
    "report --all --errata corrected --format machine":
        "6d1c394e202f764bd2a310112a5e83859c10a87a5d7ee79434811be4703f6868",
}
DER_BASES = "263b2031c38c6828c17c494702461810cd91e3921630f79b4432fabeb7f8c1c2"
# Single-cell offsets of corrected certificates, (table, row, column, offset),
# and the sha256 of `verify --format machine` over them: the rendering of
# residuals whose coefficients mix ints and fractions.
RESIDUAL_CORRUPTIONS = (
    ("mu01", 2, 1, "1/2"),
    ("mu06", 4, 2, "3*t^-1*alpha"),
    ("mu08", 3, 3, "-5/7"),
    ("mu09", 5, 5, "1/2*t^2*alpha"),
    ("mu13", 6, 4, "-5/7*t"),
    ("mu17", 7, 3, "3*t^-1"),
)
RESIDUAL_RENDERING = "ecfe0c4101b4c2a1593fa19705d337f16f249c86243a3426aa1a2c860364788e"
# Offsets in the outside row (row 1) of corrected certificates, and the sha256
# of `verify --format machine` over them.  An offset at (1, k), k in the
# ideal, maps the ideal outside itself, so det g is the full determinant; at
# (1, 1) = g_xx the ideal stays invariant and det g comes from the block's
# characteristic polynomial: a unit (mu17, mu08) or not (mu01, mu13).
OUTSIDE_ROW_CORRUPTIONS = (
    ("mu01", 1, 1, "t^2"),
    ("mu06", 1, 3, "alpha"),
    ("mu08", 1, 1, "t^-1"),
    ("mu08", 1, 8, "-2/3*t^-1"),
    ("mu10", 1, 2, "1/2*t"),
    ("mu13", 1, 1, "-1/3*t^-1*alpha"),
    ("mu15", 1, 5, "3"),
    ("mu17", 1, 1, "t"),
)
OUTSIDE_ROW_RENDERING = "80ec20f69dbe963dfd2d3fc0553d37b905daa10abd68382eae82fff0400b2557"
# One Fraction bracket cell of mu01 changed, and the sha256 of `verify mu01`
# on it: the rendering of the jacobi failures of the algebra and the family.
JACOBI_CORRUPTION = ("bracket 2 3 = -(1/11)*Y4", "bracket 2 3 = -(1/7)*Y4")
JACOBI_RENDERING = "3f76b4ded6bdd8f01f13149f29f3654929a9ff51c0d1056dc1b61eb2ab06dc1c"


@pytest.mark.parametrize("command", sorted(PINS["certify"]))
def test_certify_stdout_matches_the_pinned_digest(capsys, command):
    main(command.split())
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINS["certify"][command]


@pytest.mark.parametrize("command, code", [("verify --all", 1),  # the mu08 misprint
                                           ("verify --all --errata corrected", 0)])
def test_the_cli_starts_and_verifies_on_the_standard_library_alone(tmp_path, command, code):
    """``import filicert.cli``, then the command, each in a fresh interpreter
    with no site module (-S) and src alone on the path besides the standard
    library: the same exit code and the pinned stdout."""
    src = str(ROOT / "src")
    python = [sys.executable, "-I", "-S", "-B", "-c"]
    started = subprocess.run(python + [f"import sys; sys.path.insert(0, {src!r}); "
                                       "import filicert.cli"],
                             cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert (started.returncode, started.stdout, started.stderr) == (0, "", "")
    verified = subprocess.run(python + [f"import sys; sys.path.insert(0, {src!r}); "
                                        "from filicert.cli import main; "
                                        f"sys.exit(main({command.split()!r}))"],
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert (verified.returncode, verified.stderr) == (code, "")
    assert hashlib.sha256(verified.stdout.encode("utf-8")).hexdigest() == \
        PINS["certify"][command]


@pytest.mark.parametrize("command", sorted(PINS["invariants"]))
def test_invariants_stdout_matches_the_pinned_digest(capsys, command):
    main(command.split())
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINS["invariants"][command]


@pytest.mark.parametrize("command", sorted(CATALOG_INVARIANTS))
def test_catalog_invariants_stdout_matches_the_pinned_digest(capsys, command):
    assert main(command.split()) == 1  # criterion 5: mu06 at alpha = -1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CATALOG_INVARIANTS[command]


@pytest.mark.parametrize("command", sorted(REPORT))
def test_report_stdout_matches_the_pinned_digest(capsys, command):
    assert main(command.split()) == 1  # criterion 5: mu06 at alpha = -1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT[command]


def corrupted_verify_stdout(corpus, directory: Path, corruptions) -> int:
    """`verify --format machine` over corrected certificates with the given
    (table, row, column, offset) corruptions; returns the exit code."""
    tables = []
    for name, row, col, offset in corruptions:
        alg = apply_errata(corpus[name])
        certificate = dict(alg.certificate)
        certificate[(row, col)] = (certificate.get((row, col), Scalar())
                                   + parse_scalar(offset, ("t", "alpha")))
        table = f"{name}-g{row}{col}"
        corrupted = replace(alg, name=table, certificate=certificate, errata=())
        (directory / table).write_text(serialize_algebra(corrupted), encoding="utf-8")
        tables.append(table)
    return main(["verify", "--data", str(directory), "--format", "machine", *tables])


def test_residual_rendering_matches_the_pinned_digest(capsys, tmp_path, corpus):
    assert corrupted_verify_stdout(corpus, tmp_path, RESIDUAL_CORRUPTIONS) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RESIDUAL_RENDERING


def test_outside_row_rendering_matches_the_pinned_digest(capsys, tmp_path, corpus):
    assert corrupted_verify_stdout(corpus, tmp_path, OUTSIDE_ROW_CORRUPTIONS) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == OUTSIDE_ROW_RENDERING


def test_jacobi_rendering_matches_the_pinned_digest(capsys, tmp_path):
    old, new = JACOBI_CORRUPTION
    text = (data_dir() / "mu01").read_text(encoding="utf-8")
    assert text.count(old) == 1
    (tmp_path / "mu01").write_text(text.replace(old, new), encoding="utf-8")
    assert main(["verify", "mu01", "--data", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "jacobi: (1, 2, 3) component 5: -40/77" in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == JACOBI_RENDERING


def der_bases_digest(corpus) -> str:
    digest = hashlib.sha256()
    for name in VERIFIED_NAMES:
        alg = corpus[name]
        mu = structure_constants(apply_errata(alg))
        for alpha in DEFAULT_ALPHA_SAMPLES if "alpha" in alg.params else (None,):
            dim, basis = derivation_algebra(RationalAlgebra.from_structure(mu, alpha=alpha))
            matrices = ";".join(" ".join(str(x) for row in matrix for x in row)
                                for matrix in basis)
            digest.update(f"{name} alpha={alpha} dim={dim}: {matrices}\n".encode("utf-8"))
    return digest.hexdigest()


def test_der_bases_match_the_pinned_digest(corpus):
    assert der_bases_digest(corpus) == DER_BASES


# sha256 of each demo's stdout.
DEMOS = {
    "01_exact_scalars.py": "276e1cfb074ad58bf788d35640b91b750e06c93cadf2a62aff011af5401a309d",
    "02_verify_certificate.py": "6649ce98697739832245922830461e1d201306e811dd4ed4f9f5d63fc63f69a3",
    "03_localize_and_correct.py":
        "80ced6ddbb72c6c5b36f8a72db30a271cc0455e92d00c1b09ad822a1329f02e1",
    "04_invariants_tour.py": "c7c1fda316d837bf59d2e5efa8044f32981c34299ff71394f87b494dcfbb846a",
    "05_deformation_without_certificate.py":
        "003fecb9cba1533d54199fe47b0a0cc3c29b457678bb1dd199b9013983d27228",
}


@pytest.mark.parametrize("demo", sorted(path.name for path in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert hashlib.sha256(result.stdout.encode("utf-8")).hexdigest() == DEMOS[demo]
