"""Deformation construction and degeneration-certificate verification."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

import filicert as fc
from filicert import (DeformationSpec, InvalidSpec, NegativeExponent,
                      NotInvariant, SubspaceSpec, block_spectrum_check,
                      counterexample_spec, deform, entries_equal, go_cocycle,
                      limit_check, verify_degeneration)
from filicert.dataio import parse_scalar
from filicert.deformation import (STAGES, _cleared, _eq1_residuals, _unit_det_stage,
                                  check_deformation, run_certificate_checks,
                                  solve_certificate_cell)
from filicert.lie import basis_column, column_is_zero
from filicert.linalg import ScalarMatrix
from filicert.scalar import ONE, T, ZERO, Scalar

from helpers import (base_change, poly_from_roots, reciprocal_certificate,
                     reference_eq1_residuals, reference_solve_cell, scalar_matrix, value_at)
from test_end_to_end import RESIDUAL_CORRUPTIONS


def column(dim, **components):
    out = [ZERO] * dim
    for key, value in components.items():
        out[int(key[1:]) - 1] = fc.as_scalar(value)
    return tuple(out)


# -- cocycle construction ------------------------------------------------------

def test_cocycle_from_diagonal_weights(tables):
    data = tables["mu17"]
    phi = go_cocycle(DeformationSpec(data.mu, data.ideal, 1, data.derivation))
    for k in range(2, 9):
        expected = column(8, **{f"Y{k}": k - 1})
        assert phi.bracket(1, k) == expected
    for i in range(2, 9):
        for j in range(i + 1, 9):
            assert column_is_zero(phi.bracket(i, j))


def test_zero_derivation_gives_zero_cochain(tables):
    data = tables["mu17"]
    phi = go_cocycle(DeformationSpec(data.mu, data.ideal, 1,
                                     ScalarMatrix.diagonal([0] * 7)))
    assert not phi.entries


def test_counterexample_cochain_is_valid(tables):
    data = tables["mu17"]
    spec = counterexample_spec(data.mu)
    phi = go_cocycle(spec)
    assert fc.cocycle_check(data.mu, phi)
    assert fc.jacobi_check(phi).ok
    assert column_is_zero(phi.bracket_eval(basis_column(8, 1), basis_column(8, 2)))


@pytest.mark.parametrize("ideal, outside, derivation, failure", [
    (range(2, 9), 1, "weights", None),
    (range(1, 8), 1, "weights", ("ideal", "the complement vector lies inside the ideal")),
    (range(2, 9), 9, "weights", ("ideal", "complement index out of range")),
    (range(3, 9), 1, "size 6", ("ideal", "the ideal must have codimension 1")),
    (range(1, 8), 8, "weights", ("ideal", "the chosen subspace is not an ideal")),
    (range(2, 9), 1, "size 6", ("derivation", "derivation size does not match the ideal")),
    (range(2, 9), 1, "non-diagonal",
     ("derivation", "derivation is not diagonal (semisimplicity witness)")),
    (range(2, 9), 1, "identity", ("derivation", "the matrix is not a derivation of the ideal")),
], ids=["valid", "x-inside-h", "x-out-of-range", "codimension-2", "not-an-ideal",
        "d-of-size-6", "non-diagonal-d", "d-not-a-derivation"])
def test_go_cocycle_raises_exactly_where_check_deformation_fails(tables, ideal, outside,
                                                                 derivation, failure):
    """One validator: go_cocycle raises the reason of the first failing check
    exactly when check_deformation fails that check's stage, which notes the
    same reason; a failing ideal stage skips the derivation stage."""
    data = tables["mu17"]
    rows = [list(row) for row in data.derivation.rows]
    rows[0][1] = ONE
    derivation = {"weights": data.derivation,
                  "size 6": ScalarMatrix.diagonal([1, 2, 3, 4, 5, 6]),
                  "non-diagonal": ScalarMatrix(tuple(tuple(r) for r in rows)),
                  "identity": ScalarMatrix.identity(7)}[derivation]
    spec = DeformationSpec(data.mu, SubspaceSpec(tuple(ideal)), outside, derivation)
    checked = check_deformation(spec.base, spec.ideal, outside, derivation)
    failed = [stage for stage in ("ideal", "derivation") if not checked.stages[stage].ok]
    if failure is None:
        assert not failed
        assert entries_equal(go_cocycle(spec), checked.phi)
        return
    stage, reason = failure
    with pytest.raises(InvalidSpec) as info:
        go_cocycle(spec)
    assert str(info.value) == reason
    assert failed == (["ideal", "derivation"] if stage == "ideal" else ["derivation"])
    assert checked.stages[stage].note == reason


# -- the linear deformation -----------------------------------------------------

def test_deform_with_zero_cochain_is_identity(tables):
    data = tables["mu15"]
    zero = fc.Cochain2(8, {}, frozenset(), "zero")
    assert entries_equal(deform(data.mu, zero), data.mu)


def test_deform_recovers_base_at_zero(tables):
    for data in tables.values():
        assert entries_equal(data.mu_t.eval_t(0), data.mu)


def test_deformed_entry_mixes_bracket_and_weight(tables):
    data = tables["mu11"]
    value = data.mu_t.bracket(1, 5)
    assert value == column(8, Y5=T * 4, Y7=-1)


# -- the degeneration identity ----------------------------------------------------

def test_certificate_verifies_on_all_pairs(tables):
    data = tables["mu17"]
    report = verify_degeneration(data.mu_t, data.g)
    assert report.stages["eq1"].ok
    assert report.stages["unit-det"].ok


def test_identity_certificate_for_constant_family(tables):
    mu1 = tables["mu17"].mu1
    report = verify_degeneration(mu1, ScalarMatrix.identity(8))
    assert report.stages["eq1"].ok


def test_corrupted_certificate_fails_localized(tables):
    data = tables["mu17"]
    rows = [list(r) for r in data.g.rows]
    rows[6][2] = ZERO  # erase the (7, 3) entry
    bad = ScalarMatrix(tuple(tuple(r) for r in rows))
    report = verify_degeneration(data.mu_t, bad)
    assert not report.stages["eq1"].ok
    pairs = sorted(f.indices for f in report.stages["eq1"].failures)
    assert pairs == [(1, 2), (1, 3), (2, 3)]
    for failure in report.stages["eq1"].failures:
        components = [k + 1 for k, s in enumerate(failure.residual) if not s.is_zero()]
        touched = set(failure.indices) | set(components)
        assert touched & {3, 7}


def test_eq1_residuals_expand_like_sympy(corpus):
    """sympy re-expands mu_1(g e_i, g e_j) - g(family(e_i, e_j)) for every
    certified table in both errata modes, from the loaded brackets, the
    diagonal D and the certificate alone (mu_D, mu_t, mu_1 and the family
    mu_t, or mu_{1/t}, are rebuilt in sympy), and gets each component of
    _eq1_residuals; verbatim mu08 has exactly three nonzero components."""
    sympy = pytest.importorskip("sympy")
    t, alpha = sympy.symbols("t alpha")

    def as_sympy(scalar):
        return sum((sympy.Rational(c.numerator, c.denominator) * t ** e_t * alpha ** e_alpha
                    for (e_t, e_alpha), c in scalar.iter_terms()), sympy.Integer(0))

    nonzero = {}
    for name in fc.VERIFIED_NAMES:
        alg = corpus[name]
        block, reciprocal = alg.deformation, alg.certificate_parameter == "1/t"
        for corrected in (False, True):
            mu = fc.structure_constants(alg, corrected=corrected)
            g = fc.certificate_matrix(alg, corrected=corrected)
            dim = mu.dim
            G = [[as_sympy(x) for x in row] for row in g.rows]
            weight = dict(zip(sorted(block.ideal), block.diagonal))
            family_t = 1 / t if reciprocal else t

            def value(i, j, s):
                """mu(b_i, b_j) + s*mu_D(b_i, b_j), i < j, as sympy."""
                out = [as_sympy(x) for x in mu.entries.get((i, j), (ZERO,) * dim)]
                for x, z, sign in ((i, j, 1), (j, i, -1)):
                    if x == block.outside and z in weight:
                        out[z - 1] += sign * s * sympy.Rational(weight[z])
                return out

            mu1 = {pair: value(*pair, 1) for pair in combinations(range(1, dim + 1), 2)}
            mu_t = check_deformation(mu, SubspaceSpec(block.ideal), block.outside,
                                     ScalarMatrix.diagonal(block.diagonal)).mu_t
            family = mu_t.invert_t() if reciprocal else mu_t
            for (i, j), residual in _eq1_residuals(mu_t.at_t_one, family, g):
                rhs = value(i, j, family_t)
                for k in range(dim):
                    expected = -sum((G[k][m] * rhs[m] for m in range(dim)), sympy.Integer(0))
                    for (a, b), column in mu1.items():
                        if column[k] != 0:
                            expected += (G[a - 1][i - 1] * G[b - 1][j - 1]
                                         - G[b - 1][i - 1] * G[a - 1][j - 1]) * column[k]
                    expected = sympy.expand(expected)
                    assert sympy.expand(expected - as_sympy(residual[k])) == 0, \
                        (name, corrected, (i, j, k + 1))
                    if expected != 0:
                        nonzero.setdefault((name, corrected), []).append((i, j, k + 1))
    assert list(nonzero) == [("mu08", False)]
    assert len(nonzero["mu08", False]) == 3


def eq1_cases(corpus):
    """(label, mu_1, family, g): every certified table in both errata modes,
    the single-cell corruptions of the residual-rendering pin, and mu11 with
    the non-integral D = diag(1/2, 2, ..., 7), whose phi has denominators."""
    def case(name, corrected, diagonal=None, cell=None):
        alg = corpus[name]
        block = alg.deformation
        mu_t = check_deformation(
            fc.structure_constants(alg, corrected=corrected), SubspaceSpec(block.ideal),
            block.outside, ScalarMatrix.diagonal(diagonal or block.diagonal)).mu_t
        family = mu_t.invert_t() if alg.certificate_parameter == "1/t" else mu_t
        g = fc.certificate_matrix(alg, corrected=corrected)
        if cell:
            row, col, offset = cell
            g = with_cells(g, {(row, col): g.rows[row - 1][col - 1]
                                           + parse_scalar(offset, ("t", "alpha"))})
        return (name, corrected, diagonal, cell), mu_t.at_t_one, family, g

    cases = [case(name, corrected) for name in fc.VERIFIED_NAMES for corrected in (False, True)]
    cases += [case(name, True, cell=(row, col, offset))
              for name, row, col, offset in RESIDUAL_CORRUPTIONS]
    cases.append(case("mu11", True, diagonal=(Fraction(1, 2), 2, 3, 4, 5, 6, 7)))
    return cases


def test_eq1_residuals_match_the_unscaled_oracle(corpus):
    """The eq1 kernel runs on M*mu_1, M*L*family and L*g and divides the
    nonzero residuals by M*L^2; the oracle runs on the objects as they are."""
    nonzero = 0
    for label, mu1, family, g in eq1_cases(corpus):
        residuals = list(_eq1_residuals(mu1, family, g))
        assert residuals == list(reference_eq1_residuals(mu1, family, g)), label
        nonzero += sum(not column_is_zero(residual) for _, residual in residuals)
    assert nonzero > len(RESIDUAL_CORRUPTIONS)


def test_cleared_certificates_have_int_coefficients(corpus):
    """Every coefficient of L*g, M*mu_1 and M*L*family is an int, also where
    g, mu or phi = mu_D has Fraction coefficients: an integral Fraction would
    keep the cost of Fraction arithmetic."""
    def coefficients(columns):
        return [c for column in columns for s in column for c in s._terms.values()]

    fractions, cases = 0, eq1_cases(corpus)
    for label, mu1, family, g in cases:
        _, _, mu1_c, family_c, g_c = _cleared(mu1, family, g)
        originals = coefficients([*g.rows, *mu1.entries.values(), *family.entries.values()])
        fractions += any(type(c) is not int for c in originals)
        cleared = coefficients([*g_c.rows, *mu1_c.entries.values(), *family_c.entries.values()])
        assert len(cleared) == len(originals), label
        assert all(type(c) is int for c in cleared), label
    assert fractions == len(cases)


def test_full_pipeline_stage_order(tables):
    data = tables["mu15"]
    report = run_certificate_checks(
        "mu15", check_deformation(data.mu, data.ideal, 1, data.derivation), data.g)
    assert tuple(report.stages) == STAGES
    assert report.passed


def test_ideal_stage_requires_codimension_one(tables):
    data = tables["mu17"]
    deformation = check_deformation(data.mu, SubspaceSpec(tuple(range(3, 9))), 1,
                                    ScalarMatrix.diagonal([0] * 6))
    report = run_certificate_checks("mu17", deformation, data.g)
    ideal = report.stages["ideal"]
    assert not ideal.ok
    assert [f.note for f in ideal.failures] == ["subspace is not a codimension-1 ideal"]
    assert report.stages["derivation"].note == "skipped: ideal stage failed"


@pytest.mark.parametrize("outside", [2, 9, 0])
def test_complement_index_in_the_ideal_or_out_of_range_is_reported(tables, outside):
    data = tables["mu17"]
    report = run_certificate_checks(
        "mu17", check_deformation(data.mu, data.ideal, outside, data.derivation), data.g)
    assert tuple(report.stages) == STAGES
    ideal = report.stages["ideal"]
    assert not ideal.ok
    assert [(f.indices, f.note) for f in ideal.failures] == [
        ((2, 3, 4, 5, 6, 7, 8), "subspace is not a codimension-1 ideal")]
    for stage in ("derivation", "cocycle", "bracket", "eq1", "limit"):
        assert report.stages[stage].note == "skipped: ideal stage failed"
        assert not report.stages[stage].ok
    assert report.stages["jacobi"].ok
    assert report.stages["unit-det"].ok
    assert report.stages["spectrum"].ok


def test_a_non_diagonal_d_fails_derivation_and_skips_spectrum(tables):
    """One fault, one failing stage: spectrum is skipped, not failed again
    with its own reason; a direct call still raises."""
    data = tables["mu17"]
    rows = [list(row) for row in data.derivation.rows]
    rows[0][1] = ONE
    derivation = ScalarMatrix(tuple(tuple(row) for row in rows))
    report = run_certificate_checks(
        "mu17", check_deformation(data.mu, data.ideal, 1, derivation), data.g)
    assert report.stages["derivation"].note == \
        "derivation is not diagonal (semisimplicity witness)"
    assert report.stages["spectrum"] == fc.StageResult(
        False, note="skipped: derivation stage failed")
    with pytest.raises(InvalidSpec, match="derivation is not diagonal"):
        block_spectrum_check(data.g, data.ideal, derivation)


def test_reciprocal_certificate_satisfies_literal_identity(tables):
    data = tables["mu08"]
    assert data.reciprocal
    literal = reciprocal_certificate(data.g)
    report = verify_degeneration(data.mu_t, literal)
    assert report.stages["eq1"].ok
    assert report.stages["unit-det"].ok


def test_equivalence_of_certificate_and_base_change(tables):
    for name, data in tables.items():
        transported = base_change(data.mu1, data.g)
        target = data.mu_t.invert_t() if data.reciprocal else data.mu_t
        assert entries_equal(transported, target), name


def test_certificate_residuals_vanish_at_rational_samples(tables):
    """Numeric regression guard: specialize the identity instead of trusting
    the symbolic zero."""
    rng = random.Random(37)
    for name, data in tables.items():
        family = data.mu_t.invert_t() if data.reciprocal else data.mu_t
        for _ in range(5):
            t0 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            a0 = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            for i, j in data.mu_t.pairs():
                lhs = data.mu1.bracket_eval(data.g.column(i - 1), data.g.column(j - 1))
                rhs = data.g.apply(family.bracket(i, j))
                for a, b in zip(lhs, rhs):
                    assert value_at(a, t0, a0) == value_at(b, t0, a0), (name, i, j)


# -- the t -> 0 limit ---------------------------------------------------------------

def test_limit_of_every_catalog_family(tables):
    for data in tables.values():
        assert limit_check(data.mu_t, data.mu)


def test_limit_of_constant_family(tables):
    mu = tables["mu15"].mu
    assert limit_check(mu, mu)


def test_limit_rejects_poles(tables):
    data = tables["mu15"]
    entries = dict(data.mu_t.entries)
    entries[(1, 2)] = column(8, Y3=Scalar.t_power(-1))
    with_pole = fc.StructureConstants(8, entries, data.mu_t.params, "pole")
    with pytest.raises(NegativeExponent):
        limit_check(with_pole, data.mu)


# -- det g from the block polynomial ---------------------------------------------------

def with_cell(g: ScalarMatrix, row: int, col: int, value: Scalar) -> ScalarMatrix:
    rows = [list(r) for r in g.rows]
    rows[row - 1][col - 1] = value
    return ScalarMatrix(tuple(tuple(r) for r in rows))


def outside_row_corruptions(g: ScalarMatrix, x: int) -> list[ScalarMatrix]:
    """g with one cell of row x changed: g_xx set to zero, times (1 + t) and
    plus an offset, which keep the ideal invariant; every other cell plus the
    offset, which maps the ideal outside itself."""
    offset = Scalar({(-1, 0): Fraction(1, 2), (2, 0): 3})
    g_xx = g.rows[x - 1][x - 1]
    return ([with_cell(g, x, x, ZERO), with_cell(g, x, x, g_xx * (1 + T))]
            + [with_cell(g, x, col, g.rows[x - 1][col - 1] + offset)
               for col in range(1, g.n + 1)])


def certificate_cases(corpus):
    """(table, errata mode, certificate): the bundled ones in both modes, and
    the outside-row corruptions of the corrected ones."""
    for name in fc.VERIFIED_NAMES:
        for corrected in (False, True):
            yield name, corrected, fc.certificate_matrix(corpus[name], corrected=corrected)
        g = fc.certificate_matrix(corpus[name], corrected=True)
        for h in outside_row_corruptions(g, corpus[name].deformation.outside):
            yield name, True, h


def test_unit_det_from_the_block_polynomial_is_the_determinant(corpus, monkeypatch):
    """The unit-det stage equals the one computed from ScalarMatrix.det;
    det runs only where g does not map the ideal into itself."""
    calls = []
    full_det = ScalarMatrix.det

    def counted_det(matrix):
        calls.append(matrix)
        return full_det(matrix)

    for name, corrected, h in certificate_cases(corpus):
        alg = corpus[name]
        block = alg.deformation
        expected = _unit_det_stage(h)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ScalarMatrix, "det", counted_det)
            deformation = check_deformation(
                fc.structure_constants(alg, corrected=corrected),
                SubspaceSpec(block.ideal), block.outside,
                ScalarMatrix.diagonal(block.diagonal),
                reciprocal=alg.certificate_parameter == "1/t")
            report = run_certificate_checks(name, deformation, h)
        assert report.stages["unit-det"] == expected, (name, str(h))
        preserves = all(h.rows[block.outside - 1][k - 1].is_zero() for k in block.ideal)
        assert len(calls) == (0 if preserves else 1), (name, str(h))


# -- the spectrum of the ideal block -------------------------------------------------

def test_spectrum_of_triangular_certificate(tables):
    data = tables["mu15"]
    assert block_spectrum_check(data.g, data.ideal, data.derivation)


def test_spectrum_of_dense_certificate(tables):
    data = tables["mu08"]
    assert block_spectrum_check(data.g, data.ideal, data.derivation)


def test_spectrum_mismatch_detected():
    g = ScalarMatrix.diagonal([T, T ** 3])
    ideal = SubspaceSpec((2,))
    derivation = ScalarMatrix.diagonal([2])
    assert block_spectrum_check(g, ideal, derivation) is False
    assert block_spectrum_check(g, ideal, ScalarMatrix.diagonal([3])) is True


@pytest.mark.parametrize("exponents", [(0,), (0, 0, 0), (1, 1, 2), (-1, 0, 3),
                                       (-2, -2, 5, 0), (2, 3, 4, 5, 6, 7, 10)])
@pytest.mark.parametrize("triangular", [False, True])
def test_spectrum_with_repeated_zero_or_negative_exponents(exponents, triangular):
    """g = 1 + diag(t^(d_1), ..., t^(d_n)) on the ideal <e_2, ..., e_(n+1)>,
    with t above the diagonal of the block when triangular, passes against
    D = diag(d); with one exponent of g raised by 1 it fails.  Each verdict
    agrees with comparing the block's char_poly with poly_from_roots."""
    n = len(exponents)
    ideal = SubspaceSpec(tuple(range(2, n + 2)))
    derivation = ScalarMatrix.diagonal(exponents)
    expected = poly_from_roots(T ** d for d in exponents)
    for changed in range(-1, n):  # -1: no exponent changed
        diagonal = [ONE] + [T ** (d + (k == changed)) for k, d in enumerate(exponents)]
        g = ScalarMatrix(tuple(tuple(diagonal[i] if i == j else T if triangular and 0 < i < j
                                     else ZERO for j in range(n + 1)) for i in range(n + 1)))
        block_poly = g.submatrix(range(1, n + 1), range(1, n + 1)).char_poly()
        passes = changed == -1
        assert (block_poly == expected) is passes
        assert block_spectrum_check(g, ideal, derivation) is passes
        assert block_spectrum_check(g, ideal, derivation, block_poly=block_poly) is passes


def test_spectrum_requires_invariant_ideal():
    g = scalar_matrix([[T, ONE], [ZERO, T ** 2]])
    with pytest.raises(NotInvariant):
        block_spectrum_check(g, SubspaceSpec((2,)), ScalarMatrix.diagonal([2]))


# -- deriving a corrected cell ---------------------------------------------------------

def test_solver_reproduces_known_good_cell(tables):
    data = tables["mu17"]
    derived = solve_certificate_cell(data.mu, data.ideal, 1, data.derivation,
                                     data.g, (7, 3))
    assert derived == data.g.rows[6][2]


def test_solver_derives_the_bundled_correction(corpus, tables):
    alg = corpus["mu08"]
    data = tables["mu08"]
    verbatim_g = fc.certificate_matrix(alg, corrected=False)
    derived = solve_certificate_cell(data.mu, data.ideal, 1, data.derivation,
                                     verbatim_g, (2, 4), reciprocal=True)
    assert derived == data.g.rows[1][3]
    assert derived == -verbatim_g.rows[1][3]  # a pure coefficient-level sign fix


def test_solver_rejects_unfixable_cell(tables):
    data = tables["mu17"]
    rows = [list(r) for r in data.g.rows]
    rows[6][2] = ZERO
    rows[7][2] = ZERO  # two corrupted cells cannot be explained by one unknown
    bad = ScalarMatrix(tuple(tuple(r) for r in rows))
    with pytest.raises(InvalidSpec):
        solve_certificate_cell(data.mu, data.ideal, 1, data.derivation, bad, (7, 3))


@pytest.mark.parametrize("cell", [(0, 3), (9, 1), (2, 0), (2, 9)])
def test_solver_rejects_a_cell_outside_the_matrix(tables, cell):
    data = tables["mu17"]
    with pytest.raises(InvalidSpec, match="outside the 8x8 certificate"):
        solve_certificate_cell(data.mu, data.ideal, 1, data.derivation, data.g, cell)


def with_cells(g: ScalarMatrix, changes: dict) -> ScalarMatrix:
    rows = [list(r) for r in g.rows]
    for (row, col), value in changes.items():
        rows[row - 1][col - 1] = value
    return ScalarMatrix(tuple(tuple(r) for r in rows))


def solve_outcomes(data, g, cell):
    """(kind, value or message) of the slope solve and of the two-evaluation
    oracle on the same input."""
    outcomes = []
    for solve in (solve_certificate_cell, reference_solve_cell):
        try:
            value = solve(data.mu, data.ideal, data.outside, data.derivation, g, cell,
                          reciprocal=data.reciprocal)
            outcomes.append(("value", value))
        except InvalidSpec as exc:
            outcomes.append(("InvalidSpec", str(exc)))
    return outcomes


SLOPE_OFFSETS = ((1, 0, 0), (-1, 2, 1), (2, 1, 0), (Fraction(1, 2), 3, 1),
                 (Fraction(-5, 7), -1, 0), (3, -1, 1), (-3, 0, 1), (7, 1, 1))


def test_slope_solve_agrees_with_two_evaluations(tables):
    """On one seeded permutation of cells per certified table, each cell
    corrupted by a fixed offset (mu08 in its reciprocal parametrization),
    plus an unconstrained cell and two-cell corruptions."""
    rng = random.Random(6)
    seen = []
    for name, data in tables.items():
        g = data.g
        columns = list(range(1, g.n + 1))
        rng.shuffle(columns)
        cases = []
        for row, col in enumerate(columns, start=1):
            coeff, e_t, e_alpha = SLOPE_OFFSETS[(row + col) % len(SLOPE_OFFSETS)]
            offset = Scalar.term(coeff, e_t, e_alpha if data.alg.params else 0)
            cases.append(({(row, col): offset}, (row, col)))
        cases.append(({}, (8, 1)))  # (8, 1) appears in no residual of the catalog
        cases.append(({(2, 2): T, (7, 3): ONE}, (7, 3)))
        if name == "mu17":
            cases.append(({(6, 1): ONE, (7, 3): T}, (7, 3)))
        for offsets, cell in cases:
            corrupted = with_cells(g, {(r, c): g.rows[r - 1][c - 1] + offset
                                       for (r, c), offset in offsets.items()})
            new, reference = solve_outcomes(data, corrupted, cell)
            assert new == reference, (name, offsets, cell)
            seen.append(new[0] if new[0] == "value" else new[1])
    assert seen.count("value") == 8 * len(tables)
    for fragment in ("is unconstrained", "does not involve cell", "are inconsistent"):
        assert any(fragment in outcome for outcome in seen), fragment
