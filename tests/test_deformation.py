"""Deformation construction and degeneration-certificate verification."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filicert as fc
from filicert import (DeformationSpec, InvalidSpec, NegativeExponent,
                      NotInvariant, SubspaceSpec, block_spectrum_check,
                      counterexample_spec, deform, go_cocycle, limit_check,
                      verify_degeneration)
from filicert.dataio import parse_scalar
from filicert.deformation import (STAGES, _build_cocycle, _clear_family,
                                  _cleared_certificate, _eq1_residuals, _grades,
                                  _ideal_block, _spectrum_target, _unit_det_stage,
                                  check_deformation, run_certificate_checks,
                                  solve_certificate_cell)
from filicert.lie import Cochain2, StructureConstants, basis_column, column_is_zero, restrict
from filicert import linalg
from filicert.linalg import ScalarMatrix, expand
from filicert.scalar import ALPHA, ONE, T, ZERO, Scalar

from helpers import (base_change, cochains, entries_equal, map_entries, matmul, matrices,
                     nonzero_scalars, patterned_matrices, poly_from_roots, reciprocal_certificate,
                     reference_build_cocycle, reference_char_poly, reference_clear_family,
                     reference_cyclic_components, reference_deform, reference_eq1_residuals,
                     reference_is_derivation, reference_solve_cell, scalar_matrix, value_at)
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


@pytest.mark.parametrize("ideal", [range(2, 10), range(3, 10)], ids=["codimension-0", "shifted"])
def test_an_ideal_index_out_of_range_fails_the_ideal_stage(tables, ideal):
    """An ideal index past the dimension is reported, not an IndexError from
    building mu_D or restricting mu, before the codimension is looked at."""
    data = tables["mu17"]
    ideal = SubspaceSpec(tuple(ideal))
    derivation = ScalarMatrix.diagonal(range(len(ideal)))
    checked = check_deformation(data.mu, ideal, 1, derivation)
    assert checked.stages["ideal"].note == "ideal index out of range"
    assert checked.phi is None
    for stage in ("derivation", "cocycle", "bracket", "limit"):
        assert not checked.stages[stage].ok
    with pytest.raises(InvalidSpec, match="^ideal index out of range$"):
        go_cocycle(DeformationSpec(data.mu, ideal, 1, derivation))


# -- the derivation stage: a diagonal D grades the ideal ------------------------------

scalars_or_zero = st.one_of(st.just(ZERO), nonzero_scalars)


@st.composite
def diagonals_near(draw, weights: list[Scalar]) -> ScalarMatrix:
    """A diagonal D near the grading `weights`: scaled by a rational or by
    alpha, or negated (gradings all), with one entry perturbed, one value
    repeated on every entry, or arbitrary Scalars (t-poles among them)."""
    n = len(weights)
    kind = draw(st.sampled_from(("scaled", "alpha", "negated", "perturbed", "repeated",
                                 "arbitrary")))
    if kind in ("scaled", "alpha"):
        factor = (Scalar.from_rational(draw(st.fractions(-3, 3, max_denominator=4)))
                  if kind == "scaled" else ALPHA + draw(st.integers(-2, 2)))
        entries = [w * factor for w in weights]
    elif kind == "negated":
        entries = [-w for w in weights]
    elif kind == "perturbed":
        entries = list(weights)
        entries[draw(st.integers(0, n - 1))] += draw(nonzero_scalars)
    elif kind == "repeated":
        entries = [draw(scalars_or_zero)] * n
    else:
        entries = draw(st.lists(scalars_or_zero, min_size=n, max_size=n))
    return ScalarMatrix.diagonal(entries)


def weights_of(data) -> list[Scalar]:
    return [row[k] for k, row in enumerate(data.derivation.rows)]


def test_every_catalog_d_grades_its_ideal(corpus):
    """Both errata modes: every bundled D passes, and the identity, which
    doubles no weight, does not."""
    for name in fc.VERIFIED_NAMES:
        for corrected in (False, True):
            mu = fc.structure_constants(corpus[name], corrected=corrected)
            block = corpus[name].deformation
            ideal = SubspaceSpec(block.ideal)
            for derivation, expected in ((ScalarMatrix.diagonal(block.diagonal), True),
                                         (ScalarMatrix.identity(len(ideal)), False)):
                spec = DeformationSpec(mu, ideal, block.outside, derivation)
                assert _grades(spec) is expected, (name, corrected)
                assert reference_is_derivation(restrict(mu, ideal), derivation) is expected


@settings(max_examples=150)
@given(st.data())
def test_the_grading_check_is_the_derivation_identity(tables, data):
    """d_i + d_j = d_k on every nonzero c_ij^k inside the ideal exactly when
    D[x,y] = [Dx,y] + [x,Dy] holds on the restriction, checked densely by
    the oracle; on every catalog table, alpha-dependent ones among them."""
    table = tables[data.draw(st.sampled_from(sorted(tables)))]
    derivation = data.draw(diagonals_near(weights_of(table)))
    spec = DeformationSpec(table.mu, table.ideal, table.outside, derivation)
    assert _grades(spec) == reference_is_derivation(restrict(table.mu, table.ideal),
                                                     derivation)


def test_the_derivation_verdict_is_the_cocycle_verdict(corpus):
    """On (X, b_i, b_j) the t-linear Jacobi coefficient of mu + t*mu_D is
    [Db_i,b_j] + [b_i,Db_j] - D[b_i,b_j], and it vanishes on triples inside
    h, so once the ideal stage passes, mu_D is a cocycle exactly when D is a
    derivation of h: every catalog deformation in both errata modes, and
    the counterexample."""
    checked = []
    for name in fc.VERIFIED_NAMES:
        for corrected in (False, True):
            mu = fc.structure_constants(corpus[name], corrected=corrected)
            block = corpus[name].deformation
            checked.append(check_deformation(mu, SubspaceSpec(block.ideal), block.outside,
                                             ScalarMatrix.diagonal(block.diagonal)))
    spec = counterexample_spec(fc.structure_constants(corpus["mu17"], corrected=False))
    checked.append(check_deformation(spec.base, spec.ideal, spec.outside_index,
                                     spec.derivation))
    for deformation in checked:
        assert deformation.stages["ideal"].ok
        assert deformation.stages["derivation"].ok == deformation.stages["cocycle"].ok


@settings(max_examples=60)
@given(st.data())
def test_the_derivation_and_cocycle_verdicts_agree_off_the_grading(tables, data):
    """The same on diagonals near each catalog grading, where most fail."""
    table = tables[data.draw(st.sampled_from(sorted(tables)))]
    derivation = data.draw(diagonals_near(weights_of(table)))
    checked = check_deformation(table.mu, table.ideal, table.outside, derivation)
    assert checked.stages["derivation"].ok == checked.stages["cocycle"].ok


@settings(max_examples=80)
@given(st.data())
def test_check_deformation_fails_stages_and_never_raises(tables, data):
    """Any D of the ideal's size, diagonal or not, with arbitrary Scalar
    entries: the derivation stage is the oracle's verdict on a diagonal D,
    and the limit stage fails exactly for a t-pole in D; one of order 2 or
    more puts a pole in mu_t, which limit_check raises on, and is noted."""
    table = tables[data.draw(st.sampled_from(sorted(tables)))]
    n = len(table.ideal)
    derivation = data.draw(st.one_of(
        matrices(n), st.lists(scalars_or_zero, min_size=n, max_size=n).map(
            ScalarMatrix.diagonal)))
    checked = check_deformation(table.mu, table.ideal, table.outside, derivation,
                                data.draw(st.booleans()))
    assert set(checked.stages) == set(STAGES) - {"eq1", "unit-det", "spectrum"}
    assert checked.stages["ideal"].ok
    assert all(failure.note == "bracket of the deformed family"
               for failure in checked.stages["jacobi"].failures)
    assert checked.stages["derivation"].ok == (
        derivation.is_diagonal()
        and reference_is_derivation(restrict(table.mu, table.ideal), derivation))
    exponents = [e_t for row in derivation.rows for s in row for e_t, _ in s._terms]
    assert checked.stages["limit"].ok == (min(exponents, default=0) >= 0)
    if min(exponents, default=0) < -1:
        assert "has a pole at t = 0" in checked.stages["limit"].note
    assert checked.phi == reference_build_cocycle(checked)


def test_a_t_pole_in_d_fails_the_limit_stage(corpus):
    """D = t^-2 I on mu06's ideal puts t^-1 into mu_t: the limit stage fails
    with the message limit_check raises, and check_deformation raises
    nothing."""
    alg = corpus["mu06"]
    mu = fc.structure_constants(alg, corrected=True)
    derivation = ScalarMatrix.diagonal([Scalar.t_power(-2)] * 7)
    checked = check_deformation(mu, SubspaceSpec(alg.deformation.ideal),
                                alg.deformation.outside, derivation)
    with pytest.raises(NegativeExponent) as info:
        limit_check(checked.mu_t, mu)
    assert checked.stages["limit"] == fc.StageResult(False, note=str(info.value))
    assert str(info.value).startswith("entry (1, 2) of the family has a pole at t = 0")


# -- the linear deformation -----------------------------------------------------

def test_deform_with_zero_cochain_is_identity(tables):
    data = tables["mu15"]
    zero = fc.Cochain2(8, {}, frozenset(), "zero")
    assert entries_equal(deform(data.mu, zero), data.mu)


def test_deform_recovers_base_at_zero(tables):
    for data in tables.values():
        assert entries_equal(data.mu_t.eval_t(0), data.mu)


def test_the_builders_match_the_scalar_product_oracles(tables):
    """mu_D from D's nonzero entries and mu + t*mu_D by exponent shifts equal
    the oracles' column-by-column and T * b constructions on every table,
    and mu_t keeps mu's columns, and mu_1 their entries, where mu_D is zero."""
    for data in tables.values():
        spec = DeformationSpec(data.mu, data.ideal, data.outside, data.derivation)
        phi = _build_cocycle(spec)
        assert phi == reference_build_cocycle(spec)
        mu_t = deform(data.mu, phi)
        assert mu_t == reference_deform(data.mu, phi)
        mu1 = mu_t.eval_t(1)
        for key, column in data.mu.entries.items():
            if key not in phi.entries:
                assert mu_t.entries[key] is column
                assert all(a is b for a, b in zip(mu1.entries[key], column))


@settings(max_examples=120)
@given(st.data(), st.integers(2, 6))
def test_the_builders_match_the_oracles_on_random_inputs(data, dim):
    """Any X and ideal that mu_D can be built on, with a diagonal or dense
    D of Scalars (alpha, t-poles, Fractions), on random cochains."""
    mu = StructureConstants(dim, data.draw(cochains(dim)).entries, frozenset({"t", "alpha"}))
    outside = data.draw(st.integers(1, dim))
    others = [k for k in range(1, dim + 1) if k != outside]
    ideal = tuple(data.draw(st.permutations(others))[:data.draw(st.integers(1, dim - 1))])
    n = len(ideal)
    derivation = data.draw(st.one_of(
        matrices(n), st.lists(scalars_or_zero, min_size=n, max_size=n).map(
            ScalarMatrix.diagonal)))
    spec = DeformationSpec(mu, SubspaceSpec(ideal), outside, derivation)
    phi = _build_cocycle(spec)
    assert phi == reference_build_cocycle(spec)
    mu_t = deform(mu, phi)
    assert mu_t == reference_deform(mu, phi)
    assert all(c for column in mu_t.entries.values() for s in column for c in s._terms.values())


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
    _eq1_residuals on every pair, 0 where the kernel omits the pair or the
    component; verbatim mu08 has exactly three nonzero components."""
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
            residuals = dict(_eq1_residuals(_clear_family(mu_t, reciprocal),
                                            _cleared_certificate(g)))
            for i, j in combinations(range(1, dim + 1), 2):
                residual = residuals.get((i, j), {})
                rhs = value(i, j, family_t)
                for k in range(dim):
                    expected = -sum((G[k][m] * rhs[m] for m in range(dim)), sympy.Integer(0))
                    for (a, b), column in mu1.items():
                        if column[k] != 0:
                            expected += (G[a - 1][i - 1] * G[b - 1][j - 1]
                                         - G[b - 1][i - 1] * G[a - 1][j - 1]) * column[k]
                    expected = sympy.expand(expected)
                    assert sympy.expand(expected - as_sympy(residual.get(k, ZERO))) == 0, \
                        (name, corrected, (i, j, k + 1))
                    if expected != 0:
                        nonzero.setdefault((name, corrected), []).append((i, j, k + 1))
    assert list(nonzero) == [("mu08", False)]
    assert len(nonzero["mu08", False]) == 3


def eq1_cases(corpus):
    """(label, mu_t, reciprocal, g): every certified table in both errata modes,
    the single-cell corruptions of the residual-rendering pin, and mu11 with
    the non-integral D = diag(1/2, 2, ..., 7), whose phi has denominators."""
    def case(name, corrected, diagonal=None, cell=None):
        alg = corpus[name]
        block = alg.deformation
        mu_t = check_deformation(
            fc.structure_constants(alg, corrected=corrected), SubspaceSpec(block.ideal),
            block.outside, ScalarMatrix.diagonal(diagonal or block.diagonal)).mu_t
        g = fc.certificate_matrix(alg, corrected=corrected)
        if cell:
            row, col, offset = cell
            g = with_cells(g, {(row, col): g.rows[row - 1][col - 1]
                                           + parse_scalar(offset, ("t", "alpha"))})
        return (name, corrected, diagonal, cell), mu_t, alg.certificate_parameter == "1/t", g

    cases = [case(name, corrected) for name in fc.VERIFIED_NAMES for corrected in (False, True)]
    cases += [case(name, True, cell=(row, col, offset))
              for name, row, col, offset in RESIDUAL_CORRUPTIONS]
    cases.append(case("mu11", True, diagonal=(Fraction(1, 2), 2, 3, 4, 5, 6, 7)))
    return cases


def oracle_eq1_residuals(mu_t, g, reciprocal):
    return reference_eq1_residuals(mu_t.eval_t(1), mu_t.invert_t() if reciprocal else mu_t, g)


def assert_sparse_oracle(residuals, mu_t, g, reciprocal, label=None):
    """The kernel yields exactly the oracle's nonzero pairs, in order, each
    with the oracle's nonzero components in increasing k and no zero Scalar;
    every pair it omits is zero in the oracle."""
    oracle = list(oracle_eq1_residuals(mu_t, g, reciprocal))
    assert [pair for pair, _ in residuals] == [
        pair for pair, column in oracle if not column_is_zero(column)], label
    yielded = dict(residuals)
    for pair, column in oracle:
        sparse_column = yielded.get(pair, {})
        assert list(sparse_column) == sorted(sparse_column), (label, pair)
        assert all(s._terms for s in sparse_column.values()), (label, pair)
        assert tuple(sparse_column.get(k, ZERO) for k in range(len(column))) == column, \
            (label, pair)


def test_eq1_residuals_match_the_unscaled_oracle(corpus):
    """The eq1 kernel runs on M*mu_1, M*family and L*g, with the g(family)
    term times L, and divides the nonzero residuals by M*L^2; the oracle runs
    on the objects as they are, on every pair."""
    nonzero = 0
    for label, mu_t, reciprocal, g in eq1_cases(corpus):
        residuals = list(_eq1_residuals(_clear_family(mu_t, reciprocal),
                                        _cleared_certificate(g)))
        assert_sparse_oracle(residuals, mu_t, g, reciprocal, label)
        nonzero += len(residuals)
    assert nonzero > len(RESIDUAL_CORRUPTIONS)


def test_cleared_certificates_have_int_coefficients(corpus):
    """Every coefficient of L*g, M*mu_1 and M*family is an int, also where
    g, mu or phi = mu_D has Fraction coefficients: an integral Fraction would
    keep the cost of Fraction arithmetic."""
    def coefficients(columns):
        return [c for column in columns for s in column for c in s._terms.values()]

    fractions, cases = 0, eq1_cases(corpus)
    for label, mu_t, reciprocal, g in cases:
        mu1, family = mu_t.eval_t(1), mu_t.invert_t() if reciprocal else mu_t
        _, mu1_c, family_c = _clear_family(mu_t, reciprocal)
        _, g_c = _cleared_certificate(g)
        originals = coefficients([*g.rows, *mu1.entries.values(), *family.entries.values()])
        fractions += any(type(c) is not int for c in originals)
        cleared = coefficients([*g_c.rows, *mu1_c.entries.values(), *family_c.entries.values()])
        assert len(cleared) == len(originals), label
        assert all(type(c) is int for c in cleared), label
    assert fractions == len(cases)


@st.composite
def eq1_inputs(draw):
    """(mu_t, reciprocal, g) of dimension 2..5: a cochain and a matrix with
    int and Fraction coefficients and t, 1/t and alpha terms, each divided by
    a drawn denominator so that M and L also exceed 1 where the coefficients
    are ints.  Half of the matrices repeat column i as column j, so that
    mu_1(g e_i, g e_j) cancels to zero product by product."""
    dim = draw(st.integers(2, 5))
    mu_t = draw(cochains(dim)).scaled(Fraction(1, draw(st.integers(1, 4))))
    scale = Fraction(1, draw(st.integers(1, 4)))
    g = draw(matrices(dim)).scaled(scale)
    if draw(st.booleans()):
        i, j = draw(st.sampled_from(list(combinations(range(dim), 2))))
        g = with_cells(g, {(r + 1, j + 1): row[i] for r, row in enumerate(g.rows)})
    return mu_t, draw(st.booleans()), g


@given(eq1_inputs())
def test_eq1_kernel_matches_the_oracle_on_random_inputs(inputs):
    mu_t, reciprocal, g = inputs
    residuals = list(_eq1_residuals(_clear_family(mu_t, reciprocal), _cleared_certificate(g)))
    assert_sparse_oracle(residuals, mu_t, g, reciprocal)
    assert all(c for _, residual in residuals for s in residual.values()
               for c in s._terms.values())


def test_the_family_is_cleared_in_one_scaling_pass_as_the_oracle(corpus):
    """_clear_family scales mu_t once and reads M*mu_1 and M*mu_{1/t} off the
    scaled copy; the oracle substitutes first and scales each result.  Both
    directions of every eq1 case, M > 1 among them."""
    scales = set()
    for label, mu_t, _, _ in eq1_cases(corpus):
        for reciprocal in (False, True):
            cleared = _clear_family(mu_t, reciprocal)
            assert cleared == reference_clear_family(mu_t, reciprocal), (label, reciprocal)
            scales.add((cleared[0] > 1, reciprocal))
    assert scales == {(False, False), (False, True), (True, False), (True, True)}


@given(eq1_inputs())
def test_the_family_of_random_cochains_is_cleared_as_the_oracle(inputs):
    mu_t, _, _ = inputs
    for reciprocal in (False, True):
        assert _clear_family(mu_t, reciprocal) == reference_clear_family(mu_t, reciprocal)


def test_cleared_family_is_built_once_per_deformation_and_direction(tables, monkeypatch):
    """A CheckedDeformation clears its mu_t once, in its own direction, for
    every certificate run against it; verify_degeneration and the cell
    solver, which hold no deformation, clear a family on each call."""
    import filicert.deformation as deformation

    built, clear_family = [], deformation._clear_family
    monkeypatch.setattr(deformation, "_clear_family",
                        lambda *args: built.append(args) or clear_family(*args))
    data = tables["mu17"]
    for reciprocal in (False, True):
        checked = check_deformation(data.mu, data.ideal, 1, data.derivation, reciprocal)
        for _ in range(3):
            run_certificate_checks("mu17", checked, data.g)
        assert built == [(checked.mu_t, reciprocal)]
        built.clear()
    mu_t = deform(data.mu, data.phi)
    for reciprocal in (False, True, False):
        verify_degeneration(mu_t, data.g, reciprocal)
    assert built == [(mu_t, False), (mu_t, True), (mu_t, False)]
    built.clear()
    for _ in range(2):
        solve_certificate_cell(data.mu, data.ideal, 1, data.derivation, data.g, (7, 3))
    assert len(built) == 2 and built[0][0] is not built[1][0]


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


@pytest.mark.parametrize("family, base, expected", [
    ({(1, 2): (ZERO, ZERO, ONE + T)}, {(1, 2): (ZERO, ZERO, ONE)}, True),
    ({(1, 2): (ZERO, ZERO, ONE), (1, 3): (T, ZERO, ZERO)}, {(1, 2): (ZERO, ZERO, ONE)}, True),
    ({(1, 2): (ZERO, ZERO, ONE)}, {(1, 2): (ZERO, ZERO, ONE), (2, 3): (ONE, ZERO, ZERO)},
     False),
    ({(1, 3): (T, ZERO, ZERO)}, {(1, 2): (ZERO, ZERO, ONE)}, False),
    ({(1, 2): (ZERO, ZERO, ONE + T)}, {(1, 2): (ZERO, ZERO, ONE + T)}, False),
    ({(1, 2): (ZERO, ZERO, ALPHA + T * ALPHA)}, {(1, 2): (ZERO, ZERO, ALPHA)}, True),
    ({(1, 2): (ZERO, ZERO, ALPHA + T)}, {(1, 2): (ZERO, ZERO, ALPHA * ALPHA)}, False),
], ids=["t-term", "family-only-pair", "base-only-pair", "disjoint-pairs", "t-in-base",
        "alpha", "alpha-power"])
def test_limit_check_compares_the_t0_terms_like_the_evaluated_family(family, base,
                                                                     expected):
    params = frozenset({"t", "alpha"})
    family, base = Cochain2(3, family, params), Cochain2(3, base, params)
    assert limit_check(family, base) == entries_equal(family.eval_t(0), base) == expected


@settings(max_examples=60)
@given(st.data(), st.integers(1, 5))
def test_limit_check_is_the_evaluated_family_compared_entrywise(data, dim):
    """On random families, half of them with their poles shifted away, and
    bases equal to the limit or one entry off it, or unrelated."""
    family = data.draw(cochains(dim))
    if data.draw(st.booleans()):
        family = map_entries(family, lambda s: s * T ** 3)
    if any(s.has_negative_t_exponent() for col in family.entries.values() for s in col):
        with pytest.raises(NegativeExponent):
            limit_check(family, data.draw(cochains(dim)))
        return
    base = family.eval_t(0)
    edit = data.draw(st.sampled_from((None, ZERO, ONE, T, ALPHA)))
    if dim > 1 and edit is not None:
        pair = data.draw(st.sampled_from(sorted(family.pairs())))
        entries = dict(base.entries)
        entries[pair] = (ZERO,) * dim if edit is ZERO else (
            base.bracket(*pair)[0] + edit, *base.bracket(*pair)[1:])
        base = Cochain2(dim, entries, family.params)
    base = data.draw(st.sampled_from((base, data.draw(cochains(dim)))))
    assert limit_check(family, base) == entries_equal(family.eval_t(0), base)


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


def is_cleared_cyclic_component(rows) -> bool:
    """True iff the square matrix with these rows has int coefficients only
    and a strongly connected pattern of more than one index."""
    m = ScalarMatrix(tuple(map(tuple, rows)))
    return reference_cyclic_components(m) == [tuple(range(m.n))] and \
        all(type(c) is int for row in rows for s in row for c in s._terms.values())


def test_unit_det_from_the_block_polynomial_is_the_determinant(corpus, monkeypatch):
    """The unit-det stage equals the one computed from ScalarMatrix.det;
    det runs only where g does not map the ideal into itself.  The factors
    of the block run no Berkowitz, since every bundled block is triangular
    up to a permutation and the corruptions of row x leave the block as it
    is; a full det runs it on cyclic components of int entries only."""
    calls, inputs = [], []
    full_det = ScalarMatrix.det
    berkowitz = linalg._berkowitz

    def counted_det(matrix):
        calls.append(matrix)
        return full_det(matrix)

    for name, corrected, h in certificate_cases(corpus):
        alg = corpus[name]
        block = alg.deformation
        expected = _unit_det_stage(h.det())
        calls.clear()
        inputs.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ScalarMatrix, "det", counted_det)
            patch.setattr(linalg, "_berkowitz",
                          lambda rows: inputs.append(rows) or berkowitz(rows))
            deformation = check_deformation(
                fc.structure_constants(alg, corrected=corrected),
                SubspaceSpec(block.ideal), block.outside,
                ScalarMatrix.diagonal(block.diagonal),
                reciprocal=alg.certificate_parameter == "1/t")
            report = run_certificate_checks(name, deformation, h)
        assert report.stages["unit-det"] == expected, (name, str(h))
        preserves = all(h.rows[block.outside - 1][k - 1].is_zero() for k in block.ideal)
        assert len(calls) == (0 if preserves else 1), (name, str(h))
        if preserves:
            assert not inputs, (name, str(h))
        assert all(is_cleared_cyclic_component(rows) for rows in inputs), (name, str(h))


def test_the_det_rule_reads_the_complement_off_the_ideal(tables):
    """With X = 2 inside the ideal <Y2..Y8>, mu_t is not built, yet g still
    preserves the ideal: det g = g_11 * det B, 1 being the one index outside
    the ideal, whatever X is.  g_11 times t makes the two rules differ: g_22 *
    det B would give t^29."""
    data = tables["mu17"]
    g = with_cell(data.g, 1, 1, data.g.rows[0][0] * T)
    deformation = check_deformation(data.mu, data.ideal, 2, data.derivation)
    assert deformation.mu_t is None
    report = run_certificate_checks("mu17", deformation, g)
    assert report.stages["unit-det"] == _unit_det_stage(g.det())
    assert report.stages["unit-det"].note == "det = t^30"


def test_an_ideal_past_the_dimension_skips_spectrum(tables):
    """An ideal with an index past the dimension fails the ideal stage of
    check_deformation; run_certificate_checks then skips spectrum and takes
    unit-det from det g, where it read g's block off indices past g."""
    data = tables["mu17"]
    checked = check_deformation(data.mu, SubspaceSpec(tuple(range(2, 10))), 1,
                                ScalarMatrix.diagonal(range(8)))
    assert checked.stages["ideal"] == fc.StageResult(
        False, (fc.Failure(tuple(range(2, 10)), None, "subspace is not a codimension-1 ideal"),),
        "ideal index out of range")
    report = run_certificate_checks("mu17", checked, data.g)
    assert report.stages["spectrum"] == fc.StageResult(False, note="skipped: ideal stage failed")
    assert report.stages["unit-det"] == _unit_det_stage(data.g.det())
    assert report.stages["unit-det"].note == "det = t^29"
    assert report.failing_stages() == ["ideal", "derivation", "cocycle", "bracket", "eq1",
                                       "limit", "spectrum"]


@pytest.mark.parametrize("case", ["preserves", "leaves", "cyclic"])
def test_one_block_and_one_berkowitz_run_per_cyclic_component(tables, monkeypatch, case):
    """run_certificate_checks takes g's block on the ideal once and runs
    Berkowitz once per cyclic component of it, for unit-det and spectrum
    together: never for mu17's certificate, whose block is triangular, nor
    for one whose (1, 2) entry maps Y2 outside the ideal, which fails
    spectrum with that reason (g itself is triangular too), and once, on
    the component {Y3, Y8} cleared of its denominators, for one with t/3
    at (3, 8), closing a cycle with the entry at (8, 3)."""
    import filicert.deformation as deformation

    data = tables["mu17"]
    g = {"preserves": data.g, "leaves": with_cell(data.g, 1, 2, ONE),
         "cyclic": with_cell(data.g, 3, 8, Fraction(1, 3) * T)}[case]
    checked = check_deformation(data.mu, data.ideal, 1, data.derivation)
    calls = []
    with monkeypatch.context() as patch:
        for module, name in ((deformation, "_ideal_block"), (linalg, "_berkowitz")):
            original = getattr(module, name)
            patch.setattr(module, name, lambda *args, name=name, original=original:
                          calls.append((name, args)) or original(*args))
        report = run_certificate_checks("mu17", checked, g)
    assert [name for name, _ in calls] == ["_ideal_block"] + ["_berkowitz"] * (case == "cyclic")
    if case == "cyclic":
        component = g.submatrix([2, 7], [2, 7])
        assert calls[1][1] == (component.scaled(component.denominator()).rows,)
    assert report.stages["unit-det"] == _unit_det_stage(g.det())
    reason = "entry (1, 2) maps the ideal outside itself"
    block = g.submatrix(range(1, 8), range(1, 8))
    spectrum = (fc.StageResult(False, (fc.Failure((), None, reason),)) if case == "leaves" else
                fc.StageResult(reference_char_poly(block) == poly_from_roots(
                    T ** d for d in range(1, 8))))
    assert report.stages["spectrum"] == spectrum
    assert spectrum.ok is (case == "preserves")


def test_berkowitz_sees_only_cleared_cyclic_components(corpus, monkeypatch):
    """Every matrix Berkowitz sees in a certificate check is a cyclic
    component of g's block on the ideal, with int entries: none for the
    bundled certificates and the corruptions of row x that keep the ideal,
    and one for each bundled certificate with a Fraction entry closing a
    cycle inside the block, whose component then has denominators to clear.
    The factors multiply out to the block's characteristic polynomial."""
    inputs = []
    berkowitz = linalg._berkowitz
    fractional = 0
    for name, corrected, g in certificate_cases(corpus):
        block = corpus[name].deformation
        ideal = SubspaceSpec(block.ideal)
        inside = [k - 1 for k in block.ideal]
        i, j = next((i, j) for i in inside for j in inside
                    if i != j and not g.rows[i][j].is_zero())
        checked = check_deformation(fc.structure_constants(corpus[name], corrected=corrected),
                                    ideal, block.outside, ScalarMatrix.diagonal(block.diagonal))
        for h in (g, with_cell(g, j + 1, i + 1, Fraction(1, 3) * T)):
            try:
                expected = reference_char_poly(_ideal_block(h, ideal))
            except NotInvariant:
                continue
            assert expand(*_ideal_block(h, ideal).char_factors()) == expected, name
            inputs.clear()
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_berkowitz",
                              lambda rows: inputs.append(rows) or berkowitz(rows))
                run_certificate_checks(name, checked, h)
            assert len(inputs) == (h is not g), name
            assert all(is_cleared_cyclic_component(rows) for rows in inputs), name
            block_h = _ideal_block(h, ideal)
            fractional += any(block_h.submatrix(c, c).denominator() > 1
                              for c in reference_cyclic_components(block_h))
    assert fractional


def test_a_certificate_check_leaves_no_reference_cycle(tables):
    """Every object a certificate check makes is freed when its report is:
    the check keeps no caught exception, whose traceback would hold the
    check's frame and so everything the frame holds until a collection.
    Checked for a triangular block, a g that leaves its ideal, a block with
    a cyclic component, and an ideal with an index past the dimension."""
    import gc

    data = tables["mu17"]
    checked = check_deformation(data.mu, data.ideal, 1, data.derivation)
    gc.collect()
    gc.disable()
    try:
        cyclic = with_cell(data.g, 3, 8, Fraction(1, 3) * T)
        for g in (data.g, with_cell(data.g, 1, 2, ONE), cyclic):
            run_certificate_checks("mu17", checked, g)
        beyond = check_deformation(data.mu, SubspaceSpec(tuple(range(2, 10))), 1,
                                   ScalarMatrix.diagonal(range(8)))
        run_certificate_checks("mu17", beyond, data.g)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    agrees with comparing the block's char_poly with poly_from_roots, and so
    does the spectrum stage of run_certificate_checks on the abelian algebra
    of dimension n + 1, whose ideal <e_2, ..., e_(n+1)> D derives."""
    n = len(exponents)
    ideal = SubspaceSpec(tuple(range(2, n + 2)))
    derivation = ScalarMatrix.diagonal(exponents)
    expected = poly_from_roots(T ** d for d in exponents)
    abelian = fc.StructureConstants(n + 1, {}, frozenset())
    deformation = check_deformation(abelian, ideal, 1, derivation)
    assert all(stage.ok for stage in deformation.stages.values())
    assert deformation.spectrum_target == Counter(T ** d for d in exponents)
    for changed in range(-1, n):  # -1: no exponent changed
        diagonal = [ONE] + [T ** (d + (k == changed)) for k, d in enumerate(exponents)]
        g = ScalarMatrix(tuple(tuple(diagonal[i] if i == j else T if triangular and 0 < i < j
                                     else ZERO for j in range(n + 1)) for i in range(n + 1)))
        block_poly = g.submatrix(range(1, n + 1), range(1, n + 1)).char_poly()
        passes = changed == -1
        assert (block_poly == expected) is passes
        assert block_spectrum_check(g, ideal, derivation) is passes
        report = run_certificate_checks("abelian", deformation, g)
        assert report.stages["spectrum"] == fc.StageResult(passes)


def test_a_non_constant_eigenvalue_fails_the_spectrum_stage(tables):
    """D = t*diag(1, ..., 7) is a diagonal derivation of mu11's ideal, so
    check_deformation passes every stage; its eigenvalues are not integers,
    which fails spectrum with that reason, and a direct call raises it."""
    data = tables["mu11"]
    derivation = ScalarMatrix.diagonal([T * d for d in range(1, 8)])
    deformation = check_deformation(data.mu, data.ideal, data.outside, derivation,
                                    data.reciprocal)
    assert all(stage.ok for stage in deformation.stages.values())
    reason = "derivation eigenvalues must be integers"
    report = run_certificate_checks("mu11", deformation, data.g)
    assert report.stages["spectrum"] == fc.StageResult(False, (fc.Failure((), None, reason),))
    with pytest.raises(InvalidSpec, match=f"^{reason}$"):
        block_spectrum_check(data.g, data.ideal, derivation)


@given(st.lists(st.integers(-6, 6), max_size=8))
def test_the_spectrum_target_expands_like_vieta(exponents):
    """prod (x - t^(d_i)) over the target multiset, expanded on term maps,
    against Vieta's elementary symmetric sums, with repeated, zero and
    opposite exponents whose terms cancel."""
    target = expand(_spectrum_target(ScalarMatrix.diagonal(exponents)).elements())
    assert target == poly_from_roots([Scalar.t_power(d) for d in exponents])
    assert all(c for s in target for c in s._terms.values())


def test_the_spectrum_target_is_the_product_of_its_factors():
    """The multiset of the t^(d_i) from D's diagonal, expanded, with Vieta's
    formulas as the oracle; a non-diagonal D, a Fraction or a t on the
    diagonal is refused."""
    for exponents in [(), (0,), (2, 3, 4, 5, 6, 7, 10), (-2, 0, 0, 5), (1, -1, 1)]:
        target = _spectrum_target(ScalarMatrix.diagonal(exponents))
        assert target == Counter(T ** d for d in exponents)
        assert expand(target.elements()) == poly_from_roots(T ** d for d in exponents)
    with pytest.raises(InvalidSpec, match="^derivation is not diagonal$"):
        _spectrum_target(scalar_matrix([[1, 1], [0, 2]]))
    for value in (Fraction(1, 2), T, T + 1, ALPHA):
        with pytest.raises(InvalidSpec, match="^derivation eigenvalues must be integers$"):
            _spectrum_target(ScalarMatrix.diagonal([1, value]))


def test_every_bundled_ideal_block_has_singleton_components_only(corpus):
    """Each certificate's block on its ideal, in both errata modes, is
    triangular up to a permutation, so unit-det and spectrum run no
    Berkowitz on the catalog; a table that breaks this is named."""
    for name in fc.VERIFIED_NAMES:
        for mode in ("verbatim", "corrected"):
            g = fc.certificate_matrix(corpus[name], corrected=mode == "corrected")
            block = _ideal_block(g, SubspaceSpec(corpus[name].deformation.ideal))
            assert linalg._cyclic_components(block.rows) == [], \
                f"{name} ({mode}): its ideal block has a cyclic component"


def embedded(block: ScalarMatrix) -> ScalarMatrix:
    """1 (+) block: a certificate of the abelian algebra of dimension n + 1
    that preserves the ideal <e_2, ..., e_(n+1)> and acts on it by block."""
    n = block.n
    return ScalarMatrix(((ONE,) + (ZERO,) * n,) + tuple((ZERO,) + row for row in block.rows))


def spectrum_stage(block: ScalarMatrix, exponents) -> fc.StageResult:
    """The spectrum stage of run_certificate_checks for 1 (+) block against
    D = diag(exponents) on the abelian algebra, whose ideal D derives."""
    n = block.n
    deformation = check_deformation(fc.StructureConstants(n + 1, {}, frozenset()),
                                    SubspaceSpec(tuple(range(2, n + 2))), 1,
                                    ScalarMatrix.diagonal(exponents))
    return run_certificate_checks("abelian", deformation, embedded(block)).stages["spectrum"]


def spectrum_checks(block: ScalarMatrix, exponents) -> tuple[bool, fc.StageResult]:
    """block_spectrum_check of 1 (+) block against diag(exponents), and the
    spectrum stage."""
    stage = spectrum_stage(block, exponents)
    ideal = SubspaceSpec(tuple(range(2, block.n + 2)))
    return block_spectrum_check(embedded(block), ideal, ScalarMatrix.diagonal(exponents)), stage


@st.composite
def spectrum_cases(draw):
    """(block, exponents): a block with diagonal t^(d_i) and an acyclic
    pattern, conjugated by I + c e_ij for a nonzero entry at (j, i), which
    keeps the characteristic polynomial and in general closes a cycle
    through i and j; or one with up to two diagonal entries perturbed and
    any pattern, conjugated or not."""
    n = draw(st.integers(1, 8))
    exponents = draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))
    diagonal = [T ** d for d in exponents]
    conjugated = draw(st.booleans())
    if not conjugated:
        for k in draw(st.sets(st.integers(0, n - 1), max_size=2)):
            d = exponents[k]
            diagonal[k] = draw(st.sampled_from([T ** (d + 1), T ** d + 1, 2 * T ** d,
                                                ALPHA * T ** d, T ** exponents[0]]))
    block = draw(patterned_matrices(n, diagonal, ("acyclic",) if conjugated else
                                    ("acyclic", "mirrored", "cycle", "any")))
    cells = [(i, j) for i in range(n) for j in range(n) if i != j and block.rows[i][j]]
    if cells and (conjugated or draw(st.booleans())):
        j, i = draw(st.sampled_from(cells))
        c = draw(st.sampled_from([ONE, -ONE, Fraction(1, 2) * ONE, ALPHA, T]))
        block = matmul(matmul(with_cell(ScalarMatrix.identity(n), i + 1, j + 1, c), block),
                       with_cell(ScalarMatrix.identity(n), i + 1, j + 1, -c))
    return block, exponents


@settings(max_examples=150, deadline=None)
@given(spectrum_cases())
def test_the_factor_wise_spectrum_verdict_matches_the_oracle(case):
    """Cancelling each root of the block against one t^(d_i) and comparing
    the cyclic components with the roots left gives the verdict of comparing
    the block's full characteristic polynomial with prod (x - t^(d_i)), in
    block_spectrum_check and in the spectrum stage; unit-det is det g."""
    block, exponents = case
    expected = reference_char_poly(block) == poly_from_roots(T ** d for d in exponents)
    assert spectrum_checks(block, exponents) == (expected, fc.StageResult(expected))


def test_matching_roots_do_not_pass_a_cyclic_component_that_differs(monkeypatch):
    """Roots t and t^2 cancel two factors of prod (x - t^(d_i)) for
    d = (1, 2, 3, 4); the cyclic component, diag(t^3, t^4) conjugated by
    [[1, 1], [1, 2]], passes against the expansion of the roots left, which
    is built only then, and fails with one entry changed.  A non-integral
    eigenvalue keeps its reason."""
    import filicert.deformation as deformation

    u, v = T ** 3, T ** 4
    rows = [[T, ONE, T, ZERO], [ZERO, T ** 2, ZERO, ONE],
            [ZERO, ZERO, 2 * u - v, v - u], [ZERO, ZERO, 2 * u - 2 * v, 2 * v - u]]
    cyclic = scalar_matrix(rows)
    assert reference_cyclic_components(cyclic) == [(2, 3)]
    assert reference_char_poly(cyclic) == poly_from_roots([T, T ** 2, u, v])
    rows[2][3] = v - u + 1
    differs = scalar_matrix(rows)
    expansions = []
    monkeypatch.setattr(deformation, "expand",
                        lambda *args: expansions.append(args) or expand(*args))
    assert spectrum_checks(cyclic, (1, 2, 3, 4)) == (True, fc.StageResult(True))
    assert len(expansions) == 4
    assert spectrum_checks(differs, (1, 2, 3, 4)) == (False, fc.StageResult(False))
    assert spectrum_checks(cyclic, (1, 2, 4, 4)) == (False, fc.StageResult(False))
    assert len(expansions) == 12
    triangular = scalar_matrix([[T, ONE], [ZERO, T ** 2]])
    assert spectrum_checks(triangular, (2, 1)) == (True, fc.StageResult(True))
    assert len(expansions) == 12
    reason = "derivation eigenvalues must be integers"
    exponents = (1, 2, Fraction(7, 2), 4)
    assert spectrum_stage(cyclic, exponents) == \
        fc.StageResult(False, (fc.Failure((), None, reason),))
    with pytest.raises(InvalidSpec, match=f"^{reason}$"):
        block_spectrum_check(embedded(cyclic), SubspaceSpec((2, 3, 4, 5)),
                             ScalarMatrix.diagonal(exponents))


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


@pytest.mark.parametrize("size", [7, 9])
def test_a_certificate_of_the_wrong_size_is_a_dimension_mismatch(tables, size):
    """A g of another size than the algebra is refused before any other work,
    by run_certificate_checks (whose block of g on the ideal would otherwise
    index past g) and by the solver, whatever the cell."""
    data = tables["mu01"]
    g = ScalarMatrix.diagonal([1] * size)
    deformation = check_deformation(data.mu, data.ideal, data.outside, data.derivation)
    with pytest.raises(fc.DimensionMismatch, match="^dimensions of brackets and matrix differ$"):
        run_certificate_checks("mu01", deformation, g)
    for cell in ((2, 3), (9, 9), (0, 1)):
        with pytest.raises(fc.DimensionMismatch,
                           match="^dimensions of brackets and matrix differ$"):
            solve_certificate_cell(data.mu, data.ideal, data.outside, data.derivation, g, cell)


def test_solver_rejects_a_cell_outside_the_matrix_before_building_the_family(
        tables, monkeypatch):
    import filicert.deformation as deformation

    def refuse(*args):
        raise AssertionError("the deformation was built")

    monkeypatch.setattr(deformation, "deform", refuse)
    data = tables["mu17"]
    for outside in (1, 2):
        with pytest.raises(InvalidSpec, match="^cell \\(9, 1\\) is outside the 8x8 certificate$"):
            solve_certificate_cell(data.mu, data.ideal, outside, data.derivation, data.g, (9, 1))

@pytest.mark.parametrize("outside, reason", [
    (2, "the complement vector lies inside the ideal"),
    (9, "complement index out of range"),
    (0, "complement index out of range")], ids=["x-inside-h", "x-above-dim", "x-zero"])
def test_solver_rejects_a_complement_mu_d_cannot_be_built_with(tables, outside, reason):
    """The checks that building mu_D needs run first, as in check_deformation:
    X inside the ideal <Y2..Y8> or out of range is an InvalidSpec, not an
    error from building a bracket at indices out of range."""
    data = tables["mu17"]
    with pytest.raises(InvalidSpec, match=f"^{reason}$"):
        solve_certificate_cell(data.mu, data.ideal, outside, data.derivation, data.g, (7, 3))


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


def test_a_slope_with_an_alpha_factor_leaves_no_laurent_solution(tables):
    """mu06 with g[5, 1] raised by 1, solved at cell (4, 2): component
    (1, 2, 4) gives the candidate 0, then (1, 2, 6) has the alpha-free offset
    -t and the slope -(alpha + 2)*t, which does not divide it in
    Q[alpha][t, 1/t].  The slope solve and the two-evaluation oracle agree."""
    data = tables["mu06"]
    corrupted = with_cells(data.g, {(5, 1): data.g.rows[4][0] + ONE})
    message = "residual at (1, 2, 6) has no Laurent solution"
    assert solve_outcomes(data, corrupted, (4, 2)) == [("InvalidSpec", message)] * 2


def test_a_solve_is_one_residual_pass_and_no_bracket_eval(tables, monkeypatch):
    """The offsets come from one _residual_columns pass and the slopes from
    rows of mu_1's table: no Cochain2.bracket_eval, on a solved cell, a
    refused one and the bundled mu08 correction."""
    import filicert.deformation as deformation

    passes, evaluations = [], []
    residual_columns = deformation._residual_columns
    monkeypatch.setattr(deformation, "_residual_columns",
                        lambda *args: passes.append(args) or residual_columns(*args))
    bracket_eval = Cochain2.bracket_eval
    monkeypatch.setattr(Cochain2, "bracket_eval",
                        lambda *args: evaluations.append(args) or bracket_eval(*args))
    mu17, mu08 = tables["mu17"], tables["mu08"]
    unfixable = with_cells(mu17.g, {(7, 3): ZERO, (8, 3): ZERO})
    for data, g, cell in ((mu17, mu17.g, (7, 3)), (mu17, unfixable, (7, 3)),
                          (mu08, with_cells(mu08.g, {(2, 4): -mu08.g.rows[1][3]}), (2, 4))):
        passes.clear()
        try:
            solve_certificate_cell(data.mu, data.ideal, data.outside, data.derivation, g, cell,
                                   reciprocal=data.reciprocal)
        except InvalidSpec:
            assert g is unfixable
        assert len(passes) == 1, cell
    assert evaluations == []
