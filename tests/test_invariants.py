"""Series profiles, centers, derivation algebras, characteristic nilpotency."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from conftest import abelian
from filicert import (T, ZERO, RationalAlgebra, Scalar, ScalarMatrix, StructureConstants,
                      ValidationError, ZeroSpecialization, invariants)
from filicert.cli import main
from filicert.cli import DEFAULT_ALPHA_SAMPLES
from filicert.invariants import (center_dim, derivation_algebra,
                                 derived_series, filiform_profile,
                                 is_characteristically_nilpotent, is_filiform,
                                 lower_central_series)

from helpers import (base_change, counted_eliminations, counted_rows, der_is_nilpotent,
                     derivation_identity_holds, map_entries, matmul, rand_fraction,
                     rand_nonzero_fraction, rand_scalar, reference_algebra,
                     reference_center_dim, reference_constants,
                     reference_derived_series, reference_lower_central_series,
                     scalar_matrix)


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


def sl2() -> StructureConstants:
    """e, f, h = b_1, b_2, b_3 with [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    def column(*values):
        return tuple(map(Scalar.from_rational, values))
    return StructureConstants(3, {(1, 2): column(0, 0, 1), (1, 3): column(-2, 0, 0),
                                  (2, 3): column(0, 2, 0)}, frozenset(), "sl2")


def test_a_perfect_algebra_stops_at_its_first_step():
    """sl2 = [sl2, sl2], so both series stop at V_1, the span of the table's
    values; ad h is not nilpotent, so sl2 is not characteristically
    nilpotent."""
    algebra, oracle = rational(sl2()), reference_algebra(sl2())
    assert lower_central_series(algebra) == (3, 3) == reference_lower_central_series(oracle)
    assert derived_series(algebra) == (3, 3) == reference_derived_series(oracle)
    assert not is_characteristically_nilpotent(algebra)


def test_the_series_of_the_line():
    algebra, oracle = rational(abelian(1)), reference_algebra(abelian(1))
    assert lower_central_series(algebra) == (1, 0) == reference_lower_central_series(oracle)
    assert derived_series(algebra) == (1, 0) == reference_derived_series(oracle)


def test_g_g_is_spanned_once_per_specialization(tables, monkeypatch):
    """Both series start from one cached basis of [g,g], which, like Der,
    lives outside the record's fields: the lower central series spans [g,g]
    and each later step, the derived series only its later steps."""
    algebra, twin = (rational(tables["mu06"].mu, alpha=2) for _ in range(2))
    before = repr(algebra)
    rows = counted_rows(monkeypatch)
    lcs, ds = lower_central_series(algebra), derived_series(algebra)
    assert len(rows) == (len(lcs) - 1) + (len(ds) - 2)
    assert "derived_basis" in vars(algebra) and "derived_basis" not in vars(twin)
    assert algebra == twin and repr(algebra) == repr(twin) == before
    assert (lcs, ds) == (lower_central_series(twin), derived_series(twin))


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


def test_der_is_built_once_per_specialization(monkeypatch, capsys):
    """`invariants` reads dim Der and the Engel flag off one Der basis per
    specialization: two builds for two alphas, not four."""
    built = []
    build = invariants._derivation_basis
    monkeypatch.setattr(invariants, "_derivation_basis",
                        lambda algebra: built.append(algebra) or build(algebra))
    assert main(["invariants", "mu06", "--alpha", "-1", "--alpha", "2"]) == 1
    assert "char-nilpotent" in capsys.readouterr().out
    assert len(built) == 2


def test_the_invariant_suite_makes_few_eliminations(tables, monkeypatch, capsys):
    """The RREF kernel takes its rows sparsest first and clears the column
    of a unit row by deletion: the mu06, alpha = -1 Der system made 431
    `_eliminate` calls in arrival order and the whole-catalog invariants
    21,676; with the ordering they take 97 and 2,352."""
    calls = counted_eliminations(monkeypatch)
    assert derivation_algebra(rational(tables["mu06"].mu, alpha=-1))[0] == 11
    assert len(calls) <= 120
    calls.clear()
    assert main(["invariants"]) == 1
    assert "char-nilpotent" in capsys.readouterr().out
    assert len(calls) <= 3000


def test_the_invariant_suite_hands_the_kernel_few_rows(monkeypatch, capsys):
    """Only the nonzero products u.v are spanned, and every series starts at
    V_1, the span of its table's values, with [g,g] spanned once per
    specialization: whole-catalog invariants handed `linalg._rref` 34,279
    rows when the zero products were spanned too (21,576 of them empty), and
    12,703 rows in 882 calls when each series formed its first step's
    products; now 10,135 rows in 778 calls."""
    rows = counted_rows(monkeypatch)
    assert main(["invariants"]) == 1
    assert "char-nilpotent" in capsys.readouterr().out
    assert sum(rows) <= 10500
    assert len(rows) <= 800


def test_the_der_basis_is_a_cache_outside_the_fields(tables):
    """Computing Der changes neither == nor repr, and each call hands out a
    fresh list of the one cached basis."""
    algebra, twin = (rational(tables["mu06"].mu, alpha=2) for _ in range(2))
    before = repr(algebra)
    dim, basis = derivation_algebra(algebra)
    assert "derivations" in vars(algebra) and "derivations" not in vars(twin)
    assert algebra == twin and repr(algebra) == repr(twin) == before
    basis.clear()
    assert derivation_algebra(algebra) == (dim, list(algebra.derivations)) == \
        derivation_algebra(twin)
    assert dim == 10


ALPHAS = DEFAULT_ALPHA_SAMPLES + (Fraction(-5, 7),)  # 1/3 is a default sample
T_SAMPLES = (Fraction(1, 2), Fraction(-2, 3))


def specializations(tables):
    """(label, mu, t, alpha): every base specialization of the catalog at the
    alpha samples, and its t-deformation at the fractional t samples."""
    for name, data in tables.items():
        for alpha in ALPHAS if "alpha" in data.mu.params else (None,):
            yield f"{name} alpha={alpha}", data.mu, None, alpha
            for t in T_SAMPLES:
                yield f"{name} t={t} alpha={alpha}", data.mu_t, t, alpha


def test_series_and_center_equal_the_fraction_oracle(tables):
    for label, mu, t, alpha in specializations(tables):
        algebra, oracle = rational(mu, t=t, alpha=alpha), reference_algebra(mu, t, alpha)
        assert lower_central_series(algebra) == reference_lower_central_series(oracle), label
        assert derived_series(algebra) == reference_derived_series(oracle), label
        assert center_dim(algebra) == reference_center_dim(oracle), label


def test_series_and_center_in_a_dense_basis(tables):
    """After a dense basis change of determinant 1 most brackets are sums over
    many pairs, both orders of a pair included: the series and the center
    still equal the oracle's and the original basis's."""
    rng = random.Random(53)
    for name, t, alpha in (("mu11", None, None), ("mu06", None, Fraction(-1)),
                           ("mu15", Fraction(1, 2), None), ("mu13", Fraction(-2, 3),
                                                            Fraction(1, 3))):
        mu = tables[name].mu if t is None else tables[name].mu_t.eval_t(t)
        lower = [[1 if i == j else rand_fraction(rng) if j < i else 0 for j in range(8)]
                 for i in range(8)]
        upper = [[lower[j][i] for j in range(8)] for i in range(8)]
        dense = base_change(mu, matmul(scalar_matrix(lower), scalar_matrix(upper)))
        algebra, oracle = rational(dense, alpha=alpha), reference_algebra(dense, alpha=alpha)
        original = rational(mu, alpha=alpha)
        for invariant, reference in ((lower_central_series, reference_lower_central_series),
                                     (derived_series, reference_derived_series),
                                     (center_dim, reference_center_dim)):
            assert invariant(algebra) == reference(oracle) == invariant(original), \
                (name, invariant.__name__)


def test_table_is_a_positive_int_multiple_of_the_fraction_constants(tables):
    """The table holds (a, b) and (b, a), 0-based, for each nonzero column of
    the specialization: its nonzero constants times one positive int factor,
    negated for (b, a)."""
    for label, mu, t, alpha in specializations(tables):
        table = rational(mu, t=t, alpha=alpha).table
        constants = reference_constants(mu, t, alpha)
        assert table.keys() == {key for i, j in constants
                                for key in ((i - 1, j - 1), (j - 1, i - 1))}, label
        assert all(type(x) is int for column in table.values() for _, x in column), label
        ratios = set()
        for (i, j), column in constants.items():
            stored = table[i - 1, j - 1]
            assert [k for k, _ in stored] == [k for k, c in enumerate(column) if c], label
            assert table[j - 1, i - 1] == tuple((k, -x) for k, x in stored), label
            ratios |= {Fraction(x) / column[k] for k, x in stored}
        assert len(ratios) == 1 and ratios.pop() > 0, label


@pytest.mark.parametrize("factor", [Fraction(1, 6), Fraction(-4)])
def test_invariants_ignore_a_common_factor_of_the_constants(tables, factor):
    def invariants(algebra):
        return (lower_central_series(algebra), derived_series(algebra),
                center_dim(algebra), derivation_algebra(algebra),
                is_characteristically_nilpotent(algebra))

    scalar = Scalar.from_rational(factor)
    for name, alpha in (("mu06", Fraction(-1)), ("mu06", Fraction(1, 3)), ("mu11", None),
                        ("mu15", None)):
        mu = tables[name].mu
        for t, family in ((None, mu), (Fraction(1, 2), tables[name].mu_t)):
            scaled = map_entries(family, lambda s: s * scalar)
            assert invariants(rational(scaled, t=t, alpha=alpha)) == \
                invariants(rational(family, t=t, alpha=alpha)), (name, t, alpha)


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
        assert derived_series(deformed)[-1] == 0
        assert lower_central_series(deformed)[-1] != 0


def test_specialization_requires_all_parameters(tables):
    with pytest.raises(ValidationError):
        rational(tables["mu06"].mu)  # alpha left symbolic


def test_a_pole_at_t_zero_is_a_zero_specialization():
    entry = Scalar({(1, 0): 2, (-1, 0): 1})
    mu = StructureConstants(3, {(1, 2): (ZERO, ZERO, entry)}, frozenset({"t"}), "pole")
    with pytest.raises(ZeroSpecialization, match=r"^pole at t = 0 in 2\*t \+ t\^-1$"):
        rational(mu, t=0)


@pytest.mark.parametrize("t, alpha, left", [
    (2, None, "2*alpha^2 + 2*alpha"),
    (None, 1, "t + 3/2 + t^-1"),
    (None, None, "t*alpha + 2*alpha^2 - 1/2 + t^-1")])
def test_an_entry_left_symbolic_is_named_as_it_is_left(t, alpha, left):
    """What is left of the entry is named canonically: at t = 2 its constant
    terms cancel and are dropped."""
    entry = Scalar({(1, 1): 1, (0, 2): 2, (0, 0): Fraction(-1, 2), (-1, 0): 1})
    mu = StructureConstants(3, {(1, 3): (ZERO, entry, ZERO)}, frozenset({"t", "alpha"}))
    with pytest.raises(ValidationError) as info:
        rational(mu, t=t, alpha=alpha)
    assert str(info.value) == f"entry (1, 3) still symbolic after specialization: {left}"


def test_random_specializations_equal_the_fraction_oracle():
    """Random brackets with Fraction coefficients and negative t-exponents,
    some entries t - t0 that vanish at the sampled t = t0, specialized at
    Fraction t and alpha: the table is the Fraction oracle's."""
    rng = random.Random(2024)
    for _ in range(300):
        dim = rng.randint(1, 5)
        t, alpha = rand_nonzero_fraction(rng), rand_fraction(rng)
        vanishing = T - Scalar.from_rational(t)

        def entry():
            roll = rng.random()
            return ZERO if roll < 0.4 else vanishing if roll < 0.55 else rand_scalar(rng)

        entries = {pair: tuple(entry() for _ in range(dim))
                   for pair in combinations(range(1, dim + 1), 2) if rng.random() < 0.8}
        mu = StructureConstants(dim, entries, frozenset({"t", "alpha"}))
        assert rational(mu, t=t, alpha=alpha) == reference_algebra(mu, t, alpha), mu
