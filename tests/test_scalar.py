"""Exact scalar arithmetic: op examples, ring axioms, specialization."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from filicert import Scalar, ZeroSpecialization
from filicert.scalar import ALPHA, ONE, T, ZERO, add_product, from_terms

from helpers import ReferenceScalar, int_max_str_digits, rand_scalar, value_at

fractions_st = st.fractions(min_value=-8, max_value=8, max_denominator=6)
keys_st = st.tuples(st.integers(-3, 5), st.integers(0, 2))
scalars_st = st.dictionaries(keys_st, fractions_st.filter(bool), max_size=4).map(Scalar)
poly_scalars_st = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 2)),
    fractions_st.filter(bool), max_size=4).map(Scalar)


def poly(*coeffs) -> Scalar:
    """Polynomial in t from ascending rational coefficients."""
    return Scalar({(k, 0): Fraction(c) for k, c in enumerate(coeffs)})


# -- addition ----------------------------------------------------------------

def test_additive_cancellation():
    assert (T + 1) + (-1) == T


def test_like_term_merge():
    assert Scalar.term(Fraction(3, 5), 4) + Scalar.term(Fraction(2, 5), 4) == T ** 4


def test_sum_of_two_certificate_polynomials():
    # -(1/5)t(t^4-1) + -(1/4)t(t^3-1), expanded by hand
    p2 = Scalar.term(Fraction(-1, 5), 1) * (T ** 4 - 1)
    p3 = Scalar.term(Fraction(-1, 4), 1) * (T ** 3 - 1)
    expected = (Scalar.term(Fraction(-1, 5), 5) + Scalar.term(Fraction(-1, 4), 4)
                + Scalar.term(Fraction(9, 20), 1))
    assert p2 + p3 == expected


# -- multiplication ------------------------------------------------------------

def test_laurent_unit_product():
    assert Scalar.t_power(-1) * T == ONE


def test_difference_of_squares():
    assert (T - 1) * (T + 1) == T ** 2 - 1


def test_alpha_times_polynomial():
    product = ALPHA * (Scalar.term(Fraction(-1, 2), 6) * (T - 1))
    expected = Scalar({(7, 1): Fraction(-1, 2), (6, 1): Fraction(1, 2)})
    assert product == expected


# -- specialization ------------------------------------------------------------

def test_specialize_direct_substitution():
    value = value_at(T ** 2 + ALPHA, 3, Fraction(1, 2))
    assert value == Fraction(19, 2)


def test_specialize_certificate_polynomial():
    p1 = Scalar.term(Fraction(-8, 5), 1) * (T ** 4 - 1)
    assert value_at(p1, 2) == -48


def test_specialize_pole_raises():
    with pytest.raises(ZeroSpecialization):
        value_at(Scalar.t_power(-1), 0)


@given(scalars_st, fractions_st)
def test_eval_t_returns_a_scalar_with_no_t_term_as_it_is(s, value):
    """The substitution equals the one-pass specialization (t = 0 on a pole
    raises in both); a scalar with no t term, the zero scalar among them, is
    the result itself, also at t = 0."""
    t_free = Scalar({key: c for key, c in s._terms.items() if not key[0]})
    if value or not s.has_negative_t_exponent():
        assert s.eval_t(value) == Scalar(s.specialized_terms(t=value))
    assert t_free.eval_t(value) is t_free
    assert t_free == Scalar(t_free.specialized_terms(t=value))


def test_eval_t_keeps_alpha_symbolic():
    s = T * ALPHA + T ** 2
    assert s.eval_t(2) == ALPHA * 2 + 4


def test_invert_t_is_an_involution():
    s = Scalar({(3, 1): Fraction(2), (-1, 0): Fraction(1, 3)})
    assert s.invert_t().invert_t() == s


# -- zero test -----------------------------------------------------------------

def test_zero_scalar_is_zero():
    assert ZERO.is_zero()
    assert Scalar().is_zero()


def test_cancellation_is_zero():
    assert ((T - 1) - T + 1).is_zero()


def test_nonzero_certificate_polynomial():
    # -(2/5)t(2t^4 - t^3 - 1)
    p5 = Scalar.term(Fraction(-2, 5), 1) * poly(-1, 0, 0, -1, 2)
    assert p5 == Scalar.term(Fraction(-2, 5), 1) * (2 * T ** 4 - T ** 3 - 1)
    assert not p5.is_zero()


# -- canonical form --------------------------------------------------------------

def test_constructor_drops_zero_coefficients():
    s = Scalar({(1, 0): Fraction(0), (2, 0): Fraction(1)})
    assert s.term_count() == 1


def test_normalization_is_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        s = rand_scalar(rng)
        again = Scalar(dict(s.iter_terms()))
        assert again == s
        assert all(coeff != 0 for _, coeff in again.iter_terms())


@given(scalars_st, scalars_st)
def test_operations_return_canonical_form(a, b):
    for result in (a + b, a - b, a * b):
        assert all(coeff != 0 for _, coeff in result.iter_terms())


# -- ring axioms ------------------------------------------------------------------

@given(scalars_st, scalars_st, scalars_st)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert (a - a).is_zero()


nonzero_rationals_st = st.fractions(min_value=-6, max_value=6,
                                    max_denominator=5).filter(bool)


@given(scalars_st, scalars_st, nonzero_rationals_st, fractions_st)
def test_specialize_is_a_ring_homomorphism(a, b, t0, alpha0):
    assert value_at(a + b, t0, alpha0) == value_at(a, t0, alpha0) + value_at(b, t0, alpha0)
    assert value_at(a * b, t0, alpha0) == value_at(a, t0, alpha0) * value_at(b, t0, alpha0)


# -- interpolation self-test -------------------------------------------------------

@given(poly_scalars_st)
def test_vanishing_on_a_grid_implies_zero(a):
    """A degree-d slice vanishing at d+1 distinct points must be zero."""
    degree = max((e_t for (e_t, _), _ in a.iter_terms()), default=0)
    points = [Fraction(degree + 1 + k) for k in range(degree + 2)]
    slices: dict[int, dict[int, Fraction]] = {}
    for (e_t, e_alpha), coeff in a.iter_terms():
        slices.setdefault(e_alpha, {})[e_t] = coeff
    all_vanish = all(
        sum(c * p ** e for e, c in slice_.items()) == 0
        for slice_ in slices.values() for p in points)
    assert all_vanish == a.is_zero()


# -- unit handling ------------------------------------------------------------------

def test_unit_monomial_inverse():
    s = Scalar.term(Fraction(3, 4), 5)
    assert s * s.inverse_unit() == ONE


def test_exact_division_roundtrip():
    rng = random.Random(21)
    for _ in range(60):
        a = rand_scalar(rng)
        b = rand_scalar(rng, max_terms=3)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a


def test_exact_division_failure():
    with pytest.raises(ValueError):
        (T + 1).exact_div(ALPHA)


# -- int-or-Fraction coefficients against the Fraction-only reference ---------------

# int, Fraction and bool coefficients; a bool or an integral value is stored as an int
mixed_coeffs_st = st.one_of(st.integers(-8, 8), fractions_st, st.booleans()).filter(bool)
mixed_scalars_st = st.dictionaries(keys_st, mixed_coeffs_st, max_size=4).map(Scalar)
evaluation_points = (1, 2, -1, Fraction(1, 3))


def assert_exact(scalar: Scalar) -> None:
    for _, coeff in scalar.iter_terms():
        assert type(coeff) in (int, Fraction), f"{type(coeff).__name__} in {scalar!r}"


def assert_matches(scalar: Scalar, reference: ReferenceScalar) -> None:
    assert_exact(scalar)
    assert dict(scalar.iter_terms()) == reference.terms
    rebuilt = Scalar(reference.terms)
    assert scalar == rebuilt and hash(scalar) == hash(rebuilt)
    assert str(scalar) == str(reference)


@given(mixed_scalars_st, mixed_scalars_st, st.integers(0, 3))
def test_ring_ops_agree_with_the_fraction_reference(a, b, k):
    ra, rb = ReferenceScalar.of(a), ReferenceScalar.of(b)
    assert_matches(a, ra)
    assert_matches(a + b, ra + rb)
    assert_matches(a - b, ra - rb)
    assert_matches(a * b, ra * rb)
    assert_matches(-a, -ra)
    assert_matches(a ** k, ra ** k)
    assert_matches(3 - a, ReferenceScalar({(0, 0): 3}) - ra)


# the zero scalar in about a third of the draws: the shared ZERO or a fresh empty map
zero_or_mixed_st = st.one_of(st.sampled_from([ZERO, Scalar()]), mixed_scalars_st,
                             mixed_scalars_st)


def snapshot(scalar: Scalar) -> tuple:
    return tuple((key, type(coeff), coeff) for key, coeff in scalar.iter_terms())


@given(zero_or_mixed_st, zero_or_mixed_st, zero_or_mixed_st)
def test_zero_short_circuits_agree_with_the_fraction_reference(a, b, c):
    """Ring ops with a zero operand on either side give the reference value
    with int-or-Fraction coefficients.  A result may share an operand's term
    map, so no later op on it may change an operand."""
    before = (snapshot(a), snapshot(b), snapshot(c))
    ra, rb = ReferenceScalar.of(a), ReferenceScalar.of(b)
    zero = ReferenceScalar({})
    cases = [(a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra),
             (a + 0, ra), (0 + a, ra), (a - 0, ra), (0 - a, -ra),
             (a * 0, zero), (0 * a, zero), (a * ZERO, zero), (ZERO - a, -ra)]
    for result, reference in cases:
        assert_matches(result, reference)
        for follow_up in (result + c, result - c, c - result, result * c, -result):
            assert_exact(follow_up)
    assert (snapshot(a), snapshot(b), snapshot(c)) == before
    assert ZERO.is_zero()


@given(mixed_scalars_st, mixed_scalars_st.filter(bool))
def test_exact_division_of_a_product_returns_the_factor(a, b):
    quotient = (a * b).exact_div(b)
    assert_matches(quotient, ReferenceScalar.of(a))


@pytest.mark.parametrize("coeff", [2, -3, Fraction(1, 2)])
@pytest.mark.parametrize("e_t", [-2, 0, 3])
def test_unit_inverse_is_exact(coeff, e_t):
    inverse = Scalar.term(coeff, e_t).inverse_unit()
    assert_matches(inverse, ReferenceScalar({(-e_t, 0): 1 / Fraction(coeff)}))
    assert_matches(Scalar.term(coeff, e_t) ** -2,
                   ReferenceScalar({(-2 * e_t, 0): Fraction(coeff) ** -2}))


# c*t^a*alpha^b; an integral c is drawn either as an int or as the integral
# Fraction that a sum of two halves leaves in the term map
monomials_st = st.one_of(
    st.builds(Scalar.term, mixed_coeffs_st, st.integers(-3, 5), st.integers(0, 2)),
    st.builds(lambda c, e_t, e_alpha: Scalar.term(Fraction(c, 2), e_t, e_alpha)
              + Scalar.term(Fraction(c, 2), e_t, e_alpha),
              st.integers(-8, 8).filter(bool), st.integers(-3, 5), st.integers(0, 2)))
unit_monomials_st = st.builds(lambda c, e_t: Scalar.term(c, e_t),
                              mixed_coeffs_st, st.integers(-3, 5))


def assert_int_when_integral(scalar: Scalar) -> None:
    for _, coeff in scalar.iter_terms():
        assert type(coeff) is (int if coeff.denominator == 1 else Fraction), repr(scalar)


@given(st.one_of(monomials_st, mixed_scalars_st), st.integers(0, 6))
def test_power_is_repeated_multiplication(base, k):
    before = snapshot(base)
    power = base ** k
    repeated = ONE
    for _ in range(k):
        repeated = repeated * base
    assert power == repeated
    assert dict(power.iter_terms()) == (ReferenceScalar.of(base) ** k).terms
    if base.term_count() == 1:
        assert_int_when_integral(power)
    else:
        assert_exact(power)
    assert_exact(power * base - base)
    assert snapshot(base) == before


@given(unit_monomials_st, st.integers(1, 6))
def test_negative_power_of_a_unit_is_the_power_of_its_inverse(base, k):
    before = snapshot(base)
    coeff, e_t = base.unit_parts()
    power = base ** -k
    assert power == base.inverse_unit() ** k
    assert dict(power.iter_terms()) == (ReferenceScalar({(-e_t, 0): 1 / Fraction(coeff)}) ** k).terms
    assert_int_when_integral(power)
    assert snapshot(base) == before


@given(mixed_scalars_st, fractions_st)
def test_substitutions_agree_with_the_fraction_reference(a, alpha0):
    ra = ReferenceScalar.of(a)
    for t0 in evaluation_points:
        assert_matches(a.eval_t(t0), ra.eval_t(t0))
        value = value_at(a, t0, alpha0)
        assert type(value) is Fraction and value == ra.specialize(t0, alpha0)
    for value in (0, 2, -1, Fraction(1, 3), alpha0):
        assert_matches(a.eval_alpha(value), ra.eval_alpha(value))


def test_bool_coefficients_are_stored_as_ints():
    for scalar in (Scalar({(1, 0): True}), Scalar.term(True, 2), Scalar.from_rational(True)):
        assert [type(c) for _, c in scalar.iter_terms()] == [int]
    assert Scalar({(0, 0): False}).is_zero()


# -- coefficients of any size ---------------------------------------------------------

HUGE = 2 ** 20000 + 1  # 6,021 digits, more than the default int-to-str limit of 4,300


@pytest.mark.parametrize("limit", [4300, 640])  # the default and the least limit
@pytest.mark.parametrize("coeff", [HUGE, -HUGE, Fraction(1, HUGE), Fraction(-HUGE, 3),
                                   10 ** 640, 10 ** 4300 - 1],
                         ids=["huge", "-huge", "1/huge", "-huge/3", "10^640", "10^4300-1"])
def test_coefficients_past_the_int_to_str_limit_render_exactly(coeff, limit):
    """A numerator or denominator longer than the limit renders in full, the
    digits that str gives with no limit, and one within it as before."""
    with int_max_str_digits(0):
        expected = f"{'-' if coeff < 0 else ''}{abs(coeff)}*t^2*alpha + 1"
    with int_max_str_digits(limit):
        assert str(Scalar.term(coeff, 2, 1) + 1) == expected


# -- accumulating sums of products in one term map ------------------------------------

@given(st.lists(st.tuples(zero_or_mixed_st, zero_or_mixed_st, zero_or_mixed_st), max_size=5),
       st.booleans())
def test_accumulated_products_agree_with_the_ring_operations(products, cancel):
    """add_product adds factor*a*b in place and from_terms makes the sum a
    canonical Scalar, equal to the sum of the products by Scalar * and +,
    with no zero term; with every product added again negated, the sum is
    ZERO.  The operands are never changed."""
    before = [tuple(map(snapshot, product)) for product in products]
    terms, expected = {}, ZERO
    for factor, a, b in products:
        add_product(terms, factor, a, b)
        expected = expected + factor * a * b
    if cancel:
        for factor, a, b in products:
            add_product(terms, -factor, a, b)
        expected = ZERO
    total = from_terms(terms)
    assert total == expected
    assert all(total._terms.values())
    assert [tuple(map(snapshot, product)) for product in products] == before
