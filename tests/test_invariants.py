"""Series profiles, centers, derivation algebras, characteristic nilpotency."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest

from conftest import abelian
from filicert import RationalAlgebra, ValidationError
from filicert.invariants import (_integer, center_dim, derivation_algebra,
                                 derived_series, filiform_profile,
                                 is_characteristically_nilpotent, is_filiform,
                                 is_nilpotent, is_solvable,
                                 lower_central_series)

from helpers import der_is_nilpotent, derivation_identity_holds


def rational(mu, t=None, alpha=None):
    return RationalAlgebra.from_structure(mu, t=t, alpha=alpha)


# -- series ---------------------------------------------------------------------

def test_lower_central_series_of_abelian():
    assert lower_central_series(rational(abelian(3))) == (3, 0)


def test_lower_central_series_of_catalog_entry(tables):
    assert lower_central_series(rational(tables["mu11"].mu)) == (8, 6, 5, 4, 3, 2, 1, 0)


def test_deformed_series_stabilizes_nonzero(tables):
    deformed = rational(tables["mu17"].mu_t, t=1)
    profile = lower_central_series(deformed)
    assert profile[-1] == profile[-2] != 0
    assert profile == (8, 7, 7)


def test_derived_series_of_abelian():
    assert derived_series(rational(abelian(5))) == (5, 0)


def test_deformed_family_is_solvable(tables):
    deformed = rational(tables["mu09"].mu_t, t=1, alpha=2)
    assert derived_series(deformed)[-1] == 0


def test_derived_series_of_nilpotent_entry(tables):
    assert derived_series(rational(tables["mu02"].mu)) == (8, 6, 1, 0)


# -- filiform profile --------------------------------------------------------------

def test_catalog_entries_are_filiform(tables):
    assert is_filiform(rational(tables["mu11"].mu))
    assert is_filiform(rational(tables["mu06"].mu, alpha=Fraction(1, 3)))


def test_abelian_is_not_filiform():
    assert not is_filiform(rational(abelian(8)))


def test_heisenberg_is_filiform(heisenberg):
    algebra = rational(heisenberg)
    assert lower_central_series(algebra) == (3, 1, 0)
    assert is_filiform(algebra)


def test_filiform_profile_shape():
    assert filiform_profile(8) == (8, 6, 5, 4, 3, 2, 1, 0)
    assert filiform_profile(3) == (3, 1, 0)


# -- center --------------------------------------------------------------------------

def test_center_of_abelian():
    assert center_dim(rational(abelian(5))) == 5


def test_center_of_catalog_entry(tables):
    assert center_dim(rational(tables["mu15"].mu)) == 1


def test_center_of_heisenberg(heisenberg):
    assert center_dim(rational(heisenberg)) == 1


# -- derivation algebra -----------------------------------------------------------------

def test_derivations_of_abelian_plane():
    dim, basis = derivation_algebra(rational(abelian(2)))
    assert dim == 4


def test_derivations_of_the_line_are_gl1():
    dim, basis = derivation_algebra(rational(abelian(1)))
    assert dim == 1
    assert basis == [((Fraction(1),),)]


def test_derivation_dimension_of_catalog_entry(tables):
    dim, basis = derivation_algebra(rational(tables["mu11"].mu))
    assert dim == 12


def test_derivation_basis_self_consistency(tables):
    for name in ("mu11", "mu15"):
        algebra = rational(tables[name].mu)
        _, basis = derivation_algebra(algebra)
        for matrix in basis:
            assert derivation_identity_holds(algebra, matrix)


def test_derivation_bases_are_primitive_integer_vectors(tables):
    for name in ("mu06", "mu11", "mu15"):
        data = tables[name]
        alphas = (Fraction(-1), Fraction(2)) if name == "mu06" else (None,)
        for algebra in [rational(data.mu, alpha=a) for a in alphas] + \
                [rational(data.mu_t, t=2, alpha=a) for a in alphas]:
            _, basis = derivation_algebra(algebra)
            assert basis
            for matrix in basis:
                entries = [x for row in matrix for x in row]
                assert all(x.denominator == 1 for x in entries)
                assert gcd(*(x.numerator for x in entries)) == 1
                assert next(x for x in entries if x) > 0


def test_engel_flag_never_truncates_a_fraction():
    assert _integer(Fraction(-6, 1)) == -6
    with pytest.raises(ValueError):
        _integer(Fraction(7, 2))


# -- characteristic nilpotency -------------------------------------------------------------

def test_abelian_plane_is_not_characteristically_nilpotent():
    assert not is_characteristically_nilpotent(rational(abelian(2)))


def test_the_line_is_not_characteristically_nilpotent():
    """Its identity derivation is not nilpotent, though Der = gl(1) is abelian."""
    assert not is_characteristically_nilpotent(rational(abelian(1)))


def test_engel_flag_agrees_with_the_commutator_series_of_der(tables, heisenberg):
    """The Engel flag on V against the lower central series of Der (oracle).
    Dimension 1 is left out on purpose: there Der = gl(1) is nilpotent while
    its identity derivation is not, so the two tests differ by definition."""
    cases = {
        "abelian2": (rational(abelian(2)), False),
        "abelian3": (rational(abelian(3)), False),
        "heisenberg": (rational(heisenberg), False),
        "mu11": (rational(tables["mu11"].mu), True),
        "mu06 alpha=-1": (rational(tables["mu06"].mu, alpha=-1), False),
        "mu06 alpha=2": (rational(tables["mu06"].mu, alpha=2), True),
        "mu15 t=1": (rational(tables["mu15"].mu_t, t=1), False),
    }
    for name, (algebra, expected) in cases.items():
        assert der_is_nilpotent(algebra) is expected, name
        assert is_characteristically_nilpotent(algebra) is expected, name


def test_catalog_entry_is_characteristically_nilpotent(tables):
    assert is_characteristically_nilpotent(rational(tables["mu11"].mu))


def test_deformed_algebra_is_not_characteristically_nilpotent(tables):
    deformed = rational(tables["mu15"].mu_t, t=1)
    assert not is_characteristically_nilpotent(deformed)


def test_exceptional_parameter_value_of_family_six(tables):
    """At alpha = -1 the family mu06 acquires a derivation of nonzero trace,
    so it has a nonzero semisimple derivation and is not characteristically
    nilpotent; at generic alpha the derivation algebra has dimension 10 and
    is nilpotent.  Regression pin for a genuine exceptional parameter."""
    mu = tables["mu06"].mu
    exceptional = rational(mu, alpha=-1)
    dim, basis = derivation_algebra(exceptional)
    assert dim == 11
    traces = {sum(m[i][i] for i in range(8)) for m in basis}
    assert any(trace != 0 for trace in traces)
    assert not is_characteristically_nilpotent(exceptional)

    generic = rational(mu, alpha=Fraction(5))
    assert derivation_algebra(generic)[0] == 10
    assert is_characteristically_nilpotent(generic)


# -- solvability / nilpotency flags -----------------------------------------------------------

def test_deformed_family_flags(tables):
    data = tables["mu13"]
    for t in (1, 2, -1):
        deformed = rational(data.mu_t, t=t, alpha=Fraction(1, 3))
        assert is_solvable(deformed)
        assert not is_nilpotent(deformed)


def test_specialization_requires_all_parameters(tables):
    with pytest.raises(ValidationError):
        rational(tables["mu06"].mu)  # alpha left symbolic
