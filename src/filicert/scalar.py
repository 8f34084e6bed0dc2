"""Exact scalar arithmetic underlying every other module.

A :class:`Scalar` is a sparse Laurent polynomial in ``t`` with polynomial
dependence on ``alpha`` over the rationals: a finite map from exponent pairs
``(e_t, e_alpha)`` to nonzero exact coefficients, each a Python ``int`` or a
:class:`fractions.Fraction`, never a float.  ``e_t`` may be negative
(certificate matrices contain ``1/t`` entries); ``alpha`` is never inverted,
so ``e_alpha >= 0``.  The zero scalar is the empty map, and no stored
coefficient is zero, so structural equality of the term maps is exact
equality of scalars (an integral Fraction equals, and hashes like, its int).
Integral coefficients are stored as ints where they enter: the constructor
(and so the catalog parser, which builds each parsed Scalar with it once),
exact quotients, unit inverses, powers of a monomial, substitutions (but
:meth:`Scalar.eval_t` returns a scalar with no t term as it is) and scaling
by a constant; the ring operations do no normalization.  Every
division goes through ``Fraction``, because ``int / int`` and ``int ** -k``
are floats.

Laurent terms are multiplied in one place, :func:`add_product`, which adds
factor*a*b to a bare term map in place, with no Scalar and no copy per
product; :func:`from_terms` turns the map into a Scalar once.  Until then
the map may hold zero coefficients where terms cancelled.  A sum of many
products (a Jacobi coefficient, a bracket contraction, a Berkowitz entry) is
accumulated in one such map, ``*`` is one call into a fresh map, and ``-``
adds the negation.  ``+`` returns the other operand, without copying it,
when one is zero, and a term new to the sum stores its coefficient as it
is.  :func:`plus_t_times` forms a + t*b by shifting t-exponents, with no
product.

Rationals are substituted for t, alpha or both in one pass over the terms
(:meth:`Scalar.specialized_terms`, one term map keyed by the exponents
left), and substituting t = 0 raises :class:`ZeroSpecialization` on a pole.

Scalars are immutable values: an operation returns a canonical scalar that
may share an operand's term map, and nothing mutates a term map once a
Scalar holds it, so scalars are safe to share between concurrent tasks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator, Mapping, Union

from .errors import NotAUnit, ZeroSpecialization

_Coercible = Union["Scalar", int, Fraction]
_RATIONAL_ZERO = Fraction(0)  # Fractions are immutable, so one zero serves all


def _decimal(value: int | Fraction) -> str:
    """str() of a nonnegative int or Fraction, exact at any size: an int past
    the interpreter's int-to-str digit limit is rendered in two halves."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, Fraction):
            return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
        half = value.bit_length() * 3 // 20  # about half its digits: log10(2) ~ 0.3
        high, low = divmod(value, 10 ** half)
        return _decimal(high) + _decimal(low).zfill(half)


def _exact(value) -> int | Fraction:
    """A rational as a coefficient: an int when it is integral (a bool
    becomes an int), otherwise a Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"exact coefficient expected, got {type(value).__name__}")


class Scalar:
    """Element of Q[alpha][t, 1/t], kept in canonical (zero-free) form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Fraction | int] | None = None):
        canonical: dict[tuple[int, int], int | Fraction] = {}
        if terms:
            for (e_t, e_alpha), coeff in terms.items():
                if e_alpha < 0:
                    raise ValueError("alpha exponent must be non-negative")
                if type(coeff) is not int:
                    coeff = _exact(coeff)
                if coeff:
                    canonical[(int(e_t), int(e_alpha))] = coeff
        self._terms = canonical

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value: int | Fraction) -> "Scalar":
        return cls({(0, 0): value})

    @classmethod
    def t_power(cls, exponent: int) -> "Scalar":
        return cls({(exponent, 0): 1})

    @classmethod
    def term(cls, coeff: int | Fraction, e_t: int = 0, e_alpha: int = 0) -> "Scalar":
        return cls({(e_t, e_alpha): coeff})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(key == (0, 0) for key in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant scalar, as an exact rational."""
        terms = self._terms
        if not terms:
            return _RATIONAL_ZERO
        if len(terms) > 1 or (0, 0) not in terms:
            raise ValueError(f"not a constant: {self}")
        return Fraction(terms[(0, 0)])

    def iter_terms(self) -> Iterator[tuple[tuple[int, int], int | Fraction]]:
        """Terms in the canonical order: descending (e_t, e_alpha)."""
        for key in sorted(self._terms, reverse=True):
            yield key, self._terms[key]

    def term_count(self) -> int:
        return len(self._terms)

    def symbols(self) -> frozenset[str]:
        used = set()
        for e_t, e_alpha in self._terms:
            if e_t:
                used.add("t")
            if e_alpha:
                used.add("alpha")
        return frozenset(used)

    def has_negative_t_exponent(self) -> bool:
        return any(e_t < 0 for e_t, _ in self._terms)

    def is_unit_monomial(self) -> bool:
        """True iff the scalar is c*t^k with c a nonzero rational."""
        return len(self._terms) == 1 and next(iter(self._terms))[1] == 0

    def unit_parts(self) -> tuple[int | Fraction, int]:
        """Decompose a unit monomial as (c, k) with value c*t^k."""
        if not self.is_unit_monomial():
            raise NotAUnit(f"not of the form c*t^k: {self}")
        (e_t, _), coeff = next(iter(self._terms.items()))
        return coeff, e_t

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Scalar | None":
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.from_rational(other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if not rhs._terms:
            return self
        if not self._terms:
            return rhs
        terms = dict(self._terms)
        for key, coeff in rhs._terms.items():
            old = terms.get(key)
            if old is None:
                terms[key] = coeff
                continue
            new = old + coeff
            if new:
                terms[key] = new
            else:
                del terms[key]
        result = Scalar.__new__(Scalar)
        result._terms = terms
        return result

    __radd__ = __add__

    def __neg__(self):
        if not self._terms:
            return self
        result = Scalar.__new__(Scalar)
        result._terms = {key: -coeff for key, coeff in self._terms.items()}
        return result

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + -rhs

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + -self

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        terms: Terms = {}
        add_product(terms, ONE, self, rhs)
        return from_terms(terms)

    __rmul__ = __mul__

    def scaled(self, factor: int | Fraction) -> "Scalar":
        """factor * self for a nonzero rational factor, each coefficient
        stored as an int where it is integral; an int factor that the
        denominators divide gives int coefficients only.  Works on
        numerators and denominators, with no Fraction arithmetic."""
        if not self._terms:
            return self
        top, bottom = factor.numerator, factor.denominator
        terms = {}
        for key, coeff in self._terms.items():
            num, den = coeff.numerator * top, coeff.denominator * bottom
            if den != 1:
                common = gcd(num, den)
                num, den = num // common, den // common
            terms[key] = num if den == 1 else Fraction(num, den)
        result = Scalar.__new__(Scalar)
        result._terms = terms
        return result

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse_unit() ** (-exponent)
        if len(self._terms) == 1:
            ((e_t, e_alpha), coeff), = self._terms.items()
            result = Scalar.__new__(Scalar)
            result._terms = {(exponent * e_t, exponent * e_alpha): _exact(coeff ** exponent)}
            return result
        result = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __bool__(self):
        return bool(self._terms)

    def __hash__(self):
        # a constant equals its value, so it hashes like it (ZERO like 0)
        terms = self._terms
        if len(terms) > 1 or terms and (0, 0) not in terms:
            return hash(frozenset(terms.items()))
        return hash(terms.get((0, 0), 0))

    # -- unit inversion and exact division ---------------------------------

    def inverse_unit(self) -> "Scalar":
        """Invert a unit monomial c*t^k; raises :class:`NotAUnit` otherwise."""
        coeff, e_t = self.unit_parts()
        return Scalar({(-e_t, 0): Fraction(1, coeff)})

    def exact_div(self, divisor: "Scalar") -> "Scalar":
        """Exact quotient self/divisor; raises ValueError if not divisible."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero scalar")
        if self.is_zero():
            return ZERO
        lead_key = max(divisor._terms)
        lead_coeff = divisor._terms[lead_key]
        remainder = dict(self._terms)
        quotient: dict[tuple[int, int], int | Fraction] = {}
        steps = 0
        limit = 16 * (len(self._terms) + len(divisor._terms) + 4) ** 2
        while remainder:
            steps += 1
            if steps > limit:
                raise ValueError("not exactly divisible")
            r_key = max(remainder)
            q_alpha = r_key[1] - lead_key[1]
            if q_alpha < 0:
                raise ValueError("not exactly divisible")
            q_key = (r_key[0] - lead_key[0], q_alpha)
            q_coeff = _exact(Fraction(remainder[r_key], lead_coeff))
            quotient[q_key] = quotient.get(q_key, 0) + q_coeff
            for (d_t, d_alpha), d_coeff in divisor._terms.items():
                key = (q_key[0] + d_t, q_key[1] + d_alpha)
                new = remainder.get(key, 0) - q_coeff * d_coeff
                if new:
                    remainder[key] = new
                else:
                    remainder.pop(key, None)
        return Scalar(quotient)

    # -- evaluation --------------------------------------------------------

    def specialized_terms(self, t=None, alpha=None) -> Terms:
        """The terms with rationals substituted for t and alpha (a symbol
        given None stays symbolic), summed in one bare term map keyed by the
        exponents left; a sum that cancels stays in it as 0.  Raises
        :class:`ZeroSpecialization` on a pole at t = 0."""
        if t is not None:
            t = _exact(t)
            if t == 0 and self.has_negative_t_exponent():
                raise ZeroSpecialization(f"pole at t = 0 in {self}")
        if alpha is not None:
            alpha = _exact(alpha)
        terms: Terms = {}
        for (e_t, e_alpha), coeff in self._terms.items():
            if t is not None:
                coeff = coeff * t ** e_t if e_t >= 0 else Fraction(coeff, t ** -e_t)
                e_t = 0
            if alpha is not None:
                coeff *= alpha ** e_alpha
                e_alpha = 0
            terms[e_t, e_alpha] = terms.get((e_t, e_alpha), 0) + coeff
        return terms

    def eval_t(self, t_value: int | Fraction) -> "Scalar":
        """Substitute a rational for t, keeping alpha symbolic; a scalar
        with no t term is returned as it is."""
        if not any(e_t for e_t, _ in self._terms):
            return self
        return Scalar(self.specialized_terms(t=t_value))

    def eval_alpha(self, alpha_value: int | Fraction) -> "Scalar":
        """Substitute a rational for alpha, keeping t symbolic."""
        return Scalar(self.specialized_terms(alpha=alpha_value))

    def invert_t(self) -> "Scalar":
        """The substitution t -> 1/t (negate every t-exponent)."""
        return Scalar({(-e_t, e_alpha): c for (e_t, e_alpha), c in self._terms.items()})

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for (e_t, e_alpha), coeff in self.iter_terms():
            factors: list[str] = []
            if e_t:
                factors.append("t" if e_t == 1 else f"t^{e_t}")
            if e_alpha:
                factors.append("alpha" if e_alpha == 1 else f"alpha^{e_alpha}")
            magnitude = abs(coeff)
            if not factors or magnitude != 1:
                factors.insert(0, _decimal(magnitude))
            body = "*".join(factors)
            if not chunks:
                chunks.append(f"-{body}" if coeff < 0 else body)
            else:
                chunks.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"Scalar({self})"


ZERO = Scalar()
ONE = Scalar.from_rational(1)
T = Scalar.t_power(1)
ALPHA = Scalar.term(1, 0, 1)

Terms = dict[tuple[int, int], int | Fraction]


def add_product(terms: Terms, factor: Scalar, a: Scalar, b: Scalar) -> None:
    """terms += factor*a*b, in place on a bare term map that no Scalar holds.

    A coefficient that cancels stays in the map as 0, so the map is not
    canonical until :func:`from_terms` converts it.
    """
    for (f_t, f_alpha), f_coeff in factor._terms.items():
        for (a_t, a_alpha), a_coeff in a._terms.items():
            e_t, e_alpha, coeff = f_t + a_t, f_alpha + a_alpha, f_coeff * a_coeff
            for (b_t, b_alpha), b_coeff in b._terms.items():
                key = (e_t + b_t, e_alpha + b_alpha)
                terms[key] = terms.get(key, 0) + coeff * b_coeff


def from_terms(terms: Terms) -> Scalar:
    """The Scalar of a term map filled by :func:`add_product` or read by the
    parser, its zero terms dropped and its coefficients kept as they are."""
    result = Scalar.__new__(Scalar)
    result._terms = {key: coeff for key, coeff in terms.items() if coeff}
    return result


def plus_t_times(a: Scalar, b: Scalar) -> Scalar:
    """a + t*b, with t*b formed by shifting the t-exponents of b's terms;
    a itself when b is zero."""
    if not b._terms:
        return a
    terms = dict(a._terms)
    for (e_t, e_alpha), coeff in b._terms.items():
        key = (e_t + 1, e_alpha)
        terms[key] = terms.get(key, 0) + coeff
    return from_terms(terms)


def as_scalar(value: _Coercible) -> Scalar:
    """Coerce an int, Fraction, or Scalar to a Scalar."""
    if isinstance(value, Scalar):
        return value
    return Scalar.from_rational(value)
