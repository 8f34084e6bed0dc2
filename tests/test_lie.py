"""Structure-constant calculus: brackets, Jacobi, base change, ideals,
derivations, cocycles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import filicert as fc
from filicert import (Cochain2, StructureConstants, SubspaceSpec, base_change,
                      cocycle_check, entries_equal, is_derivation, is_ideal,
                      jacobi_check, restrict)
from filicert.deformation import deform, run_certificate_checks
from filicert.errors import ValidationError
from filicert.lie import basis_column, column_is_zero
from filicert.linalg import ScalarMatrix
from filicert.scalar import ALPHA, ONE, ZERO

from helpers import (dense_bracket_eval, monomial_diagonal, rand_scalar,
                     reference_cocycle, reference_jacobi)


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
        round_trip = base_change(base_change(mu, g), g.inverse_unit())
        assert entries_equal(round_trip, mu)
        composed = base_change(mu, g @ h)
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
            report = run_certificate_checks(name, mu, data.ideal, data.outside,
                                            data.derivation, data.g, data.reciprocal)
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
