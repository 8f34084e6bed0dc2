"""Acceptance suite: one test per criterion, one printed verdict line each.

Every check is an exact identity (zero tolerance); runtimes are printed for
information.  Criterion 5 currently fails at a single sampled point: the
family mu06 at alpha = -1 has a derivation of nonzero trace, hence a nonzero
semisimple derivation, so it is not characteristically nilpotent there.  The
assertion is kept as stated rather than weakened; see the test for the
witness data.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import filicert as fc
from filicert import RationalAlgebra
from filicert.cli import main
from filicert.dataio import parse_algebra, serialize_algebra
from filicert.deformation import solve_certificate_cell
from filicert.invariants import (center_dim, derivation_algebra,
                                 derived_series,
                                 is_characteristically_nilpotent,
                                 lower_central_series)
from filicert.scalar import T

from helpers import (derivation_identity_holds, eval_poly_at_matrix, poly_from_roots,
                     rand_scalar, random_algebra_file, reciprocal_certificate,
                     scalar_matrix, value_at)

ALPHA_SAMPLES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3))
T_SAMPLES = (Fraction(1), Fraction(2), Fraction(-1))


def verdict(number: int, label: str, ok: bool, extra: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f"  ({extra})" if extra else ""
    print(f"ACCEPTANCE {number} ({label}): {state}{suffix}")


def alphas_for(data) -> tuple:
    return ALPHA_SAMPLES if "alpha" in data.alg.params else (None,)


def test_criterion_1_degeneration_certificates(corpus, tables):
    """Every certificate satisfies the degeneration identity symbolically on
    all 28 basis pairs; the one misprinted cell is localized and its
    correction is forced by the residual equations."""
    slowest = 0.0
    for name, data in tables.items():
        start = time.time()
        report = fc.verify_degeneration(data.mu_t, data.g,
                                        reciprocal=data.reciprocal)
        slowest = max(slowest, time.time() - start)
        assert report.stages["eq1"].ok, f"{name} (corrected) fails the identity"

    # verbatim: nine tables pass, the tenth localizes the misprint exactly
    misprints = {}
    for name, data in tables.items():
        verbatim_g = fc.certificate_matrix(corpus[name])
        report = fc.verify_degeneration(data.mu_t, verbatim_g,
                                        reciprocal=data.reciprocal)
        if not report.stages["eq1"].ok:
            misprints[name] = {
                failure.indices: tuple(k + 1 for k, s in enumerate(failure.residual)
                                       if not s.is_zero())
                for failure in report.stages["eq1"].failures}
    assert misprints == {"mu08": {(1, 4): (2, 7), (3, 4): (5,)}}

    # the documented correction is the unique solution of the residual system
    data = tables["mu08"]
    derived = solve_certificate_cell(data.mu, data.ideal, data.outside,
                                     data.derivation,
                                     fc.certificate_matrix(corpus["mu08"]),
                                     (2, 4), reciprocal=True)
    assert derived == data.g.rows[1][3]
    erratum = corpus["mu08"].errata[0]
    assert erratum.target == "g 2 4" and erratum.corrected is not None

    # the reciprocally parametrized family satisfies the identity literally
    literal = reciprocal_certificate(data.g)
    report = fc.verify_degeneration(data.mu_t, literal)
    assert report.stages["eq1"].ok and report.stages["unit-det"].ok

    verdict(1, "degeneration certificates", True,
            f"10 tables, worst case {slowest:.2f}s; one sign misprint "
            "localized and corrected")


def test_criterion_2_construction_validity(tables):
    for name, data in tables.items():
        assert fc.jacobi_check(data.mu).ok, name
        assert fc.is_ideal(data.mu, data.ideal), name
        assert fc.is_derivation(fc.restrict(data.mu, data.ideal),
                                data.derivation), name
        assert fc.cocycle_check(data.mu, data.phi), name
        assert fc.jacobi_check(data.phi).ok, name
        assert fc.jacobi_check(data.mu_t).ok, name
        assert fc.limit_check(data.mu_t, data.mu), name
    verdict(2, "construction validity", True, "10 tables, symbolic in t and alpha")


def test_criterion_3_solvable_non_nilpotent(tables):
    worst = 0.0
    points = 0
    for name, data in tables.items():
        for t in T_SAMPLES:
            for alpha in ALPHA_SAMPLES:
                start = time.time()
                algebra = RationalAlgebra.from_structure(data.mu_t, t=t, alpha=alpha)
                derived = derived_series(algebra)
                lower = lower_central_series(algebra)
                worst = max(worst, time.time() - start)
                points += 1
                assert derived[-1] == 0, (name, t, alpha)
                assert lower[-1] != 0, (name, t, alpha)
    verdict(3, "solvable and non-nilpotent deformations", True,
            f"{points} sample points, worst case {worst:.3f}s")


def test_criterion_4_filiform_profile(tables):
    expected = (8, 6, 5, 4, 3, 2, 1, 0)
    for name, data in tables.items():
        for alpha in alphas_for(data):
            algebra = RationalAlgebra.from_structure(data.mu, alpha=alpha)
            assert lower_central_series(algebra) == expected, (name, alpha)
            assert center_dim(algebra) == 1, (name, alpha)
    verdict(4, "filiform profile and center", True)


def test_criterion_5_characteristic_nilpotency(tables):
    """All ten algebras, all sampled alpha; Der bases re-verified entry-wise.

    Fails honestly: mu06 at alpha = -1 has an 11-dimensional derivation
    algebra containing a derivation of trace 72, hence a nonzero semisimple
    derivation, so it is not characteristically nilpotent at that sampled
    point.  The claim this criterion encodes does not hold at that
    exceptional parameter value; see the decisions ledger.
    """
    worst = 0.0
    failures = []
    for name, data in tables.items():
        for alpha in alphas_for(data):
            start = time.time()
            algebra = RationalAlgebra.from_structure(data.mu, alpha=alpha)
            dim, basis = derivation_algebra(algebra)
            for matrix in basis:
                assert derivation_identity_holds(algebra, matrix), (name, alpha)
            flag = is_characteristically_nilpotent(algebra)
            worst = max(worst, time.time() - start)
            if not flag:
                traces = sorted({sum(m[i][i] for i in range(8)) for m in basis})
                failures.append((name, alpha, dim, traces))
    verdict(5, "characteristic nilpotency", not failures,
            f"worst case {worst:.2f}s per (algebra, alpha)"
            + ("" if not failures else
               f"; exceptional points: {[(n, str(a)) for n, a, _, _ in failures]}"))
    assert not failures, (
        "characteristic nilpotency fails at sampled exceptional point(s): "
        + "; ".join(
            f"{name} at alpha={alpha}: dim Der = {dim}, basis traces {traces}"
            for name, alpha, dim, traces in failures)
        + " — a derivation of nonzero trace has a nonzero semisimple part, "
          "so the algebra has rank >= 1 there (see decisions ledger)")


def test_criterion_6_block_spectrum(tables):
    for name, data in tables.items():
        assert fc.block_spectrum_check(data.g, data.ideal, data.derivation), name
        inside = [k - 1 for k in sorted(data.ideal.indices)]
        block = data.g.submatrix(inside, inside)
        if name != "mu08":
            diagonal_product = poly_from_roots(
                [block.rows[k][k] for k in range(block.n)])
            assert block.char_poly() == diagonal_product, name
    block = tables["mu08"].g.submatrix(range(1, 8), range(1, 8))
    expected = poly_from_roots([T ** d for d in (2, 3, 4, 5, 6, 7, 10)])
    assert block.char_poly() == expected
    verdict(6, "ideal block spectrum", True,
            "9 triangular cases cross-validated against the diagonal; "
            "1 dense case via division-free characteristic polynomial")


def test_criterion_7_counterexample(capsys, tables):
    data = tables["mu17"]
    spec = fc.counterexample_spec(data.mu)
    phi = fc.go_cocycle(spec)
    mu_t = fc.deform(data.mu, phi)
    assert fc.cocycle_check(data.mu, phi)
    assert fc.jacobi_check(phi).ok
    assert fc.jacobi_check(mu_t).ok
    code = main(["counterexample"])
    out = capsys.readouterr().out
    assert code == 0
    assert ("deformation valid: yes; degeneration certificate: none shipped; "
            "non-existence: asserted, unverified") in out
    with capsys.disabled():
        print()
        verdict(7, "deformation without a certificate", True)


def test_criterion_8_unit_determinants(tables):
    summary = []
    for name, data in tables.items():
        det = data.g.det()
        assert det.is_unit_monomial(), f"{name}: det = {det}"
        coeff, power = det.unit_parts()
        assert coeff != 0
        summary.append(f"{name}: {det}")
    verdict(8, "unit determinants", True, "; ".join(summary))


def test_criterion_9_kernel_property_suites(corpus):
    rng = random.Random(90125)

    cases = 0
    while cases < 1000:
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        c = rand_scalar(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        cases += 1

    cases = 0
    while cases < 1000:
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        t0 = Fraction(rng.randint(1, 12), rng.randint(1, 6)) * rng.choice((1, -1))
        alpha0 = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        assert value_at(a + b, t0, alpha0) == value_at(a, t0, alpha0) + value_at(b, t0, alpha0)
        assert value_at(a * b, t0, alpha0) == value_at(a, t0, alpha0) * value_at(b, t0, alpha0)
        cases += 1

    for _ in range(40):
        matrix = scalar_matrix(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
             for _ in range(4)])
        evaluated = eval_poly_at_matrix(matrix.char_poly(), matrix)
        assert all(entry.is_zero() for row in evaluated.rows for entry in row)

    for name, alg in corpus.items():
        once = serialize_algebra(alg)
        assert serialize_algebra(parse_algebra(once, source=name)) == once, name
    file_rng = random.Random(424242)
    for _ in range(200):
        alg = random_algebra_file(file_rng)
        once = serialize_algebra(alg)
        assert parse_algebra(once, source=alg.name) == alg
        assert serialize_algebra(parse_algebra(once, source=alg.name)) == once

    verdict(9, "kernel property suites", True,
            "2000 randomized ring/homomorphism cases, 40 Cayley-Hamilton "
            "matrices, 220 round-trips")
