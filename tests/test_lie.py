"""Structure-constant calculus: brackets, Jacobi, base change, ideals,
derivations, cocycles."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filicert as fc
from filicert import (Cochain2, StructureConstants, SubspaceSpec, cocycle_check,
                      is_derivation, is_ideal, jacobi_check, restrict)
from filicert.deformation import check_deformation, deform, run_certificate_checks
from filicert.errors import DimensionMismatch, ValidationError
from filicert.lie import basis_column, column_is_zero
from filicert.linalg import ScalarMatrix
from filicert.scalar import ALPHA, ONE, T, ZERO

from helpers import (base_change, cochains, dense_bracket, dense_bracket_eval,
                     entries_equal, eval_alpha, inverse_unit, matmul, matrices,
                     monomial_diagonal, nonzero_scalars, rand_scalar, reference_algebra,
                     reference_cocycle, reference_is_derivation, reference_jacobi,
                     reference_jacobi_expansion, scalar_matrix, vectors)


def column(dim, **components):
    out = [ZERO] * dim
    for key, value in components.items():
        out[int(key[1:]) - 1] = fc.as_scalar(value)
    return tuple(out)


# -- bracket evaluation --------------------------------------------------------

def test_bracket_of_basis_pair(tables):
    mu = tables["mu11"].mu
    value = mu.bracket_eval(basis_column(8, 2), basis_column(8, 7))
    assert value == basis_column(8, 8)


def test_bracket_is_alternating(tables):
    rng = random.Random(5)
    mu = tables["mu15"].mu
    for _ in range(10):
        x = tuple(rand_scalar(rng, allow_alpha=False) for _ in range(8))
        assert column_is_zero(mu.bracket_eval(x, x))


def test_bracket_with_family_parameter(tables):
    mu = tables["mu06"].mu
    value = mu.bracket_eval(basis_column(8, 1), basis_column(8, 6))
    assert value == column(8, Y8=-ALPHA)


def mixed_column(rng: random.Random, dim: int, symbols: frozenset) -> tuple:
    """A column whose entries are zero, a monomial or several terms, in about
    equal shares, in the parameters the bracket declares."""
    kinds = (lambda: ZERO,
             lambda: rand_scalar(rng, max_terms=1, allow_alpha="alpha" in symbols) or ONE,
             lambda: rand_scalar(rng, max_terms=4, allow_alpha="alpha" in symbols))
    return tuple(rng.choice(kinds)() for _ in range(dim))


def test_bracket_eval_matches_the_dense_double_sum(tables):
    rng = random.Random(13)
    for name, data in tables.items():
        for mu in (data.mu, data.mu_t):
            for _ in range(4):
                x = mixed_column(rng, mu.dim, mu.params)
                y = mixed_column(rng, mu.dim, mu.params)
                assert mu.bracket_eval(x, y) == dense_bracket_eval(mu, x, y), mu.name


def test_bracket_index_order_antisymmetry(tables):
    mu = tables["mu11"].mu
    forward = mu.bracket(2, 5)
    backward = mu.bracket(5, 2)
    assert backward == tuple(-s for s in forward)


# -- Jacobi --------------------------------------------------------------------

def test_heisenberg_satisfies_jacobi(heisenberg):
    assert jacobi_check(heisenberg).ok


def test_all_catalog_brackets_satisfy_jacobi(tables):
    for name, data in tables.items():
        report = jacobi_check(data.mu)
        assert report.ok, f"{name}: failing triples {[f[0] for f in report.failures]}"


def test_corrupted_bracket_fails_jacobi_at_named_triple():
    entries = {
        (1, 2): column(3, Y3=1),
        (1, 3): column(3, Y2=1),
        (2, 3): column(3, Y1=1, Y2=1),
    }
    mu = StructureConstants(3, entries, frozenset(), "corrupted")
    report = jacobi_check(mu)
    assert not report.ok
    (triple, residual), = report.failures
    assert triple == (1, 2, 3)
    assert residual == column(3, Y3=-1)


# -- base change -----------------------------------------------------------------

def test_base_change_by_identity(tables):
    mu = tables["mu15"].mu
    assert entries_equal(base_change(mu, ScalarMatrix.identity(8)), mu)


def test_base_change_is_a_group_action(tables):
    rng = random.Random(31)
    mu = tables["mu11"].mu
    for _ in range(6):
        g = monomial_diagonal(rng, 8)
        h = monomial_diagonal(rng, 8)
        round_trip = base_change(base_change(mu, g), inverse_unit(g))
        assert entries_equal(round_trip, mu)
        composed = base_change(mu, matmul(g, h))
        stepwise = base_change(base_change(mu, g), h)
        assert entries_equal(composed, stepwise)


def test_base_change_transports_deformation_to_certificate_image(tables):
    data = tables["mu17"]
    transported = base_change(data.mu1, data.g)
    assert entries_equal(transported, data.mu_t)


# -- ideals -----------------------------------------------------------------------

def test_standard_ideal_of_catalog_entry(tables):
    mu = tables["mu15"].mu
    assert is_ideal(mu, SubspaceSpec((2, 3, 4, 5, 6, 7, 8)))


def test_whole_space_is_an_ideal(tables):
    mu = tables["mu15"].mu
    assert is_ideal(mu, SubspaceSpec(tuple(range(1, 9))))


def test_span_of_first_vector_is_not_an_ideal(tables):
    mu = tables["mu15"].mu
    assert not is_ideal(mu, SubspaceSpec((1,)))


def test_standard_ideal_in_every_catalog_entry(tables):
    ideal = SubspaceSpec((2, 3, 4, 5, 6, 7, 8))
    for data in tables.values():
        assert is_ideal(data.mu, ideal)


def test_restrict_rejects_non_closed_subspace(tables):
    mu = tables["mu15"].mu
    with pytest.raises(ValidationError):
        restrict(mu, SubspaceSpec((1, 2)))  # [Y1, Y2] = -Y3 leaves the span


# -- derivations -------------------------------------------------------------------

def test_diagonal_weights_are_a_derivation(tables):
    data = tables["mu17"]
    mu_h = restrict(data.mu, data.ideal)
    assert is_derivation(mu_h, ScalarMatrix.diagonal([1, 2, 3, 4, 5, 6, 7]))


def test_identity_is_a_derivation_of_abelian():
    from conftest import abelian

    mu = abelian(7)
    assert is_derivation(mu, ScalarMatrix.identity(7))


def test_constant_weights_are_not_a_derivation(tables):
    data = tables["mu17"]
    mu_h = restrict(data.mu, data.ideal)
    assert not is_derivation(mu_h, ScalarMatrix.identity(7))


# -- cocycles ----------------------------------------------------------------------

def test_zero_cochain_is_a_cocycle(tables):
    mu = tables["mu13"].mu
    zero = Cochain2(8, {}, frozenset(), "zero")
    assert cocycle_check(mu, zero)
    assert jacobi_check(zero).ok


def test_bracket_is_a_cocycle_of_itself(tables):
    mu = tables["mu13"].mu
    assert cocycle_check(mu, mu)


def test_deformation_cochains_are_cocycles_and_brackets(tables):
    for name, data in tables.items():
        assert cocycle_check(data.mu, data.phi), name
        assert jacobi_check(data.phi).ok, name


def test_corrupted_cochain_is_not_a_bracket(tables):
    data = tables["mu09"]
    entries = dict(data.phi.entries)
    entries[(2, 3)] = column(8, Y2=1)
    corrupted = Cochain2(8, entries, data.phi.params, "corrupted")
    assert not jacobi_check(corrupted).ok


def test_deformed_bracket_satisfies_jacobi_at_samples(tables):
    samples = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-5, 2)]
    for name, data in tables.items():
        for s in samples:
            specialized = data.mu_t.eval_t(s)
            assert jacobi_check(specialized).ok, f"{name} at s={s}"


# -- one Jacobi expansion against the basis-column reference -------------------------

def _corrupt(cochain, rng):
    """The cochain with one structure constant changed by 1."""
    i, j = rng.choice(list(cochain.pairs()))
    k = rng.randrange(cochain.dim)
    column = list(cochain.bracket(i, j))
    column[k] = column[k] + 1
    entries = dict(cochain.entries)
    entries[(i, j)] = tuple(column)
    return type(cochain)(cochain.dim, entries, cochain.params, cochain.name)


def _rendered(failures):
    return [(triple, [str(s) for s in residual]) for triple, residual in failures]


def test_expansion_stages_match_reference_on_corrupted_brackets(tables):
    rng = random.Random(41)
    for name, data in tables.items():
        for _ in range(4):
            mu = _corrupt(data.mu, rng)
            deformation = check_deformation(mu, data.ideal, data.outside, data.derivation,
                                            data.reciprocal)
            report = run_certificate_checks(name, deformation, data.g)
            expected = ([(t, r, "bracket of the algebra") for t, r in reference_jacobi(mu)]
                        + [(t, r, "bracket of the deformed family")
                           for t, r in reference_jacobi(deform(mu, data.phi))])
            jacobi = report.stages["jacobi"]
            assert [(f.indices, [str(s) for s in f.residual], f.note)
                    for f in jacobi.failures] == \
                [(t, [str(s) for s in r], note) for t, r, note in expected], name
            assert jacobi.ok == (not expected)
            assert report.stages["cocycle"].ok == reference_cocycle(mu, data.phi), name
            assert report.stages["bracket"].ok == (not reference_jacobi(data.phi)), name


def test_expansion_coefficients_match_reference_on_corrupted_cochains(tables):
    rng = random.Random(43)
    for name, data in tables.items():
        phi = _corrupt(data.phi, rng)
        expansion = jacobi_check(data.mu, phi)
        assert _rendered(expansion.coefficient(0)) == _rendered(reference_jacobi(data.mu))
        assert (not expansion.coefficient(1)) == reference_cocycle(data.mu, phi), name
        assert _rendered(expansion.coefficient(2)) == _rendered(reference_jacobi(phi)), name
        assert _rendered(expansion.failures) == \
            _rendered(reference_jacobi(deform(data.mu, phi))), name
        assert cocycle_check(data.mu, phi) == reference_cocycle(data.mu, phi), name


# -- the sparse kernel against dense oracles on random cochains ----------------------
#
# Mutation checks: storing the (j, i) table entry without negating it is killed
# by test_bracket_is_antisymmetric_in_its_indices,
# test_jacobi_expansion_matches_the_dense_oracles and
# test_the_derivation_basis_of_a_specialization_passes_the_kernel (a random
# matrix is almost never a derivation, so the random is_derivation test sees
# False on both sides); gathering only x_a*y_b for each pair (dropping
# -x_b*y_a) is killed by
# test_bracket_eval_matches_the_dense_oracle_on_random_cochains.

dims = st.integers(1, 6)


@settings(max_examples=60)
@given(st.data(), dims)
def test_bracket_eval_matches_the_dense_oracle_on_random_cochains(data, dim):
    mu = data.draw(cochains(dim))
    x, y = data.draw(vectors(dim)), data.draw(vectors(dim))
    assert mu.bracket_eval(x, y) == dense_bracket_eval(mu, x, y)


@settings(max_examples=50)
@given(st.data(), dims)
def test_bracket_is_antisymmetric_in_its_indices(data, dim):
    mu = data.draw(cochains(dim))
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            assert mu.bracket(i, j) == dense_bracket(mu, i, j)
            assert mu.bracket(j, i) == tuple(-s for s in mu.bracket(i, j))


@settings(max_examples=40)
@given(st.data(), st.integers(3, 6))
def test_jacobi_expansion_matches_the_dense_oracles(data, dim):
    mu, phi = data.draw(cochains(dim)), data.draw(cochains(dim))
    expansion = jacobi_check(mu, phi)
    assert _rendered(expansion.coefficient(0)) == _rendered(reference_jacobi(mu))
    assert (not expansion.coefficient(1)) == reference_cocycle(mu, phi)
    assert _rendered(expansion.coefficient(2)) == _rendered(reference_jacobi(phi))
    assert _rendered(expansion.failures) == _rendered(reference_jacobi(deform(mu, phi)))
    assert _rendered(jacobi_check(mu).failures) == _rendered(reference_jacobi(mu))


def assert_expansion_is_the_reference(mu, phi):
    """The whole JacobiReport of mu and of mu + t*phi equals the one that
    visits every basis triple: terms in combinations order, failures, and
    each t-coefficient."""
    for args in ((mu,), (mu, phi)):
        report, expected = jacobi_check(*args), reference_jacobi_expansion(*args)
        assert report.terms == expected.terms
        assert report.failures == expected.failures
        for degree in range(3):
            assert report.coefficient(degree) == expected.coefficient(degree)


def test_the_catalog_expansions_are_the_reference(tables):
    """Every reached triple of a catalog algebra and its cocycle cancels."""
    for name, data in tables.items():
        assert_expansion_is_the_reference(data.mu, data.phi)
        assert not jacobi_check(data.mu, data.phi).terms, name


@st.composite
def signed_cochains(draw, dim):
    """Every pair stored, entries in {0, 1, -1}: products of equal size meet
    in one coefficient, so some triples are reached and still cancel."""
    entries = {pair: tuple(draw(st.lists(st.sampled_from((ZERO, ZERO, ONE, -ONE)),
                                         min_size=dim, max_size=dim)))
               for pair in combinations(range(1, dim + 1), 2)}
    return Cochain2(dim, entries, frozenset({"t", "alpha"}))


# Mutation checks: dropping the rotation r < p < q from the sparse expansion
# is killed here, by test_the_catalog_expansions_are_the_reference and by
# test_jacobi_expansion_matches_the_dense_oracles; keeping a reached triple
# whose products cancel is killed here and by the catalog test.
@settings(max_examples=80)
@given(st.data(), dims)
def test_the_sparse_expansion_is_the_reference_expansion(data, dim):
    """Fraction, t and alpha entries, signed entries that cancel, and dim <= 2."""
    draw = lambda: data.draw(st.one_of(cochains(dim), signed_cochains(dim)))
    assert_expansion_is_the_reference(draw(), draw())


@settings(max_examples=40)
@given(st.data(), dims)
def test_is_derivation_matches_the_dense_oracle(data, dim):
    mu, matrix = data.draw(cochains(dim)), data.draw(matrices(dim))
    assert is_derivation(mu, matrix) == reference_is_derivation(mu, matrix)


@st.composite
def graded_cochains(draw, dim):
    """mu(b_i, b_j) a multiple of b_(i+j): diag(c, 2c, ..., dim*c) is a
    derivation for every scalar c."""
    entries = {(i, j): tuple(draw(nonzero_scalars) if k == i + j else ZERO
                             for k in range(1, dim + 1))
               for i, j in combinations(range(1, dim + 1), 2) if i + j <= dim}
    return Cochain2(dim, entries, frozenset({"t", "alpha"}))


@settings(max_examples=40)
@given(st.data(), st.integers(3, 6))
def test_graded_weights_are_derivations_and_a_perturbation_is_judged_like_the_oracle(
        data, dim):
    mu = data.draw(graded_cochains(dim))
    c = data.draw(nonzero_scalars)
    weights = ScalarMatrix.diagonal([c * k for k in range(1, dim + 1)])
    assert is_derivation(mu, weights) and reference_is_derivation(mu, weights)
    r, col = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))
    rows = [list(row) for row in weights.rows]
    rows[r][col] = rows[r][col] + data.draw(nonzero_scalars)
    perturbed = ScalarMatrix(tuple(tuple(row) for row in rows))
    assert is_derivation(mu, perturbed) == reference_is_derivation(mu, perturbed)


def test_the_derivation_basis_of_a_specialization_passes_the_kernel(tables):
    """Every matrix of the rational Der basis of mu06 at alpha = -1 and 2, most
    of them not diagonal, is a derivation; adding 1 to an off-diagonal entry
    is judged as the dense oracle judges it."""
    from filicert.invariants import derivation_algebra

    mu06 = tables["mu06"].mu
    for alpha in (-1, 2):
        mu = eval_alpha(mu06, alpha)
        _, basis = derivation_algebra(reference_algebra(mu06, alpha=alpha))
        assert any(m[r][c] for m in basis for r in range(8) for c in range(8) if r != c)
        for matrix in basis:
            d = scalar_matrix(matrix)
            assert is_derivation(mu, d) and reference_is_derivation(mu, d)
            rows = [list(row) for row in d.rows]
            rows[0][7] = rows[0][7] + 1
            perturbed = ScalarMatrix(tuple(tuple(row) for row in rows))
            assert is_derivation(mu, perturbed) == reference_is_derivation(mu, perturbed)


def test_the_table_is_a_cache_outside_the_fields(tables):
    """Building the sparse table changes neither == nor repr, and comparing
    brackets does not build it."""
    data = tables["mu11"]
    fresh = data.mu_t.eval_t(1)
    assert entries_equal(fresh, data.mu1)
    assert "table" not in vars(fresh)
    before = repr(fresh)
    fresh.bracket_eval(basis_column(8, 1), basis_column(8, 2))
    assert "table" in vars(fresh)
    assert repr(fresh) == before
    assert fresh == data.mu_t.eval_t(1)


# -- validation at the lie level ------------------------------------------------------

@pytest.mark.parametrize("value, declared, undeclared", [
    (ALPHA, {"t"}, {"alpha"}), (fc.Scalar.t_power(-1), {"alpha"}, {"t"}),
    (ALPHA * fc.Scalar.t_power(2), set(), {"alpha", "t"})])
def test_a_column_with_an_undeclared_parameter_is_rejected(value, declared, undeclared):
    """The message lists the parameters in sorted order, whatever the hash seed."""
    entries = {(1, 2): column(3), (1, 3): column(3, Y2=1), (2, 3): (ZERO, ZERO, value)}
    with pytest.raises(ValidationError) as info:
        Cochain2(3, entries, frozenset(declared))
    listed = ", ".join(repr(name) for name in sorted(undeclared))
    assert str(info.value) == f"entry (2, 3) uses undeclared parameter(s) {{{listed}}}"


def test_zero_columns_are_dropped_whatever_their_params():
    mu = Cochain2(3, {(1, 2): column(3), (1, 3): column(3, Y2=2)}, frozenset())
    assert mu.entries == {(1, 3): column(3, Y2=2)}


@pytest.mark.parametrize("entries, error, message", [
    ({(2, 1): column(3, Y3=1)}, ValidationError, r"bracket indices \(2, 1\) out of range"),
    ({(1, 4): column(3, Y3=1)}, ValidationError, r"bracket indices \(1, 4\) out of range"),
    ({(1, 2): (ONE, ZERO)}, DimensionMismatch, r"column for \(1, 2\) has wrong length")])
def test_structural_errors_keep_their_types_and_messages(entries, error, message):
    with pytest.raises(error, match=rf"^{message}$"):
        Cochain2(3, entries, frozenset())


def test_derived_cochains_equal_the_validated_ones(tables):
    """eval_t, invert_t, scaled and deform build their results
    without validating them again; each equals (type, entries, params, name)
    the cochain that the validating constructor builds from the same
    entries.  The column (t - 1)*Y3 vanishes at t = 1 and is dropped."""
    mu = StructureConstants(3, {(1, 2): column(3, Y3=T - 1),
                                (1, 3): column(3, Y2=Fraction(1, 2) * ALPHA * T ** -1)},
                            frozenset({"t", "alpha"}), "mu")
    cases = [(mu, mu.params)]
    for data in tables.values():
        cases += [(data.mu_t, data.mu_t.params), (data.phi, data.phi.params)]
    for cochain, params in cases:
        substitutions = [(lambda s: s.eval_t(1), params - {"t"}),
                         (lambda s: s.eval_t(Fraction(-2, 3)), params - {"t"}),
                         (lambda s: s.invert_t(), params),
                         (lambda s: s.scaled(Fraction(-4, 7)), params)]
        derived = [cochain.eval_t(1), cochain.eval_t(Fraction(-2, 3)), cochain.invert_t(),
                   cochain.scaled(Fraction(-4, 7))]
        for result, (func, reduced) in zip(derived, substitutions):
            validated = type(cochain)(cochain.dim, {key: tuple(func(s) for s in column)
                                                    for key, column in cochain.entries.items()},
                                      reduced, cochain.name)
            assert result == validated
            assert "table" not in vars(result)
    assert mu.eval_t(1).entries.keys() == {(1, 3)}
    for data in tables.values():
        entries = {key: tuple(a + T * b for a, b in zip(data.mu.bracket(*key),
                                                        data.phi.bracket(*key)))
                   for key in data.mu.entries.keys() | data.phi.entries.keys()}
        assert deform(data.mu, data.phi) == StructureConstants(
            8, entries, data.mu.params | {"t"}, f"{data.mu.name}_t")


def test_specializations_carry_the_reduced_params(tables):
    mu_t = tables["mu06"].mu_t
    assert mu_t.params == frozenset({"t", "alpha"})
    assert mu_t.eval_t(1).params == frozenset({"alpha"})
    assert mu_t.invert_t().params == mu_t.params
