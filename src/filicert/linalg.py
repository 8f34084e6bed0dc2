"""Exact matrix algebra over Scalars and over rationals.

Determinants and characteristic polynomials of :class:`ScalarMatrix` use the
Berkowitz algorithm, which is division-free and therefore valid over the
Laurent ring Q[alpha][t, 1/t].  Inverses require a unit determinant c*t^k and
are obtained fraction-free (Bareiss/Montante form of Gauss-Jordan), so the
only division ever performed on Scalars is exact.

:class:`RationalMatrix` provides fraction-free (Bareiss) rank, row-space and
right-nullspace computations over Q, with pivots chosen as the first nonzero
entry in row-major order and results normalized at the end, so every output
is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotAUnit
from .scalar import ONE, ZERO, Scalar, UniPoly, as_scalar

Column = tuple[Scalar, ...]


def _dot(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    total = ZERO
    for x, y in zip(a, b):
        if not (x.is_zero() or y.is_zero()):
            total = total + x * y
    return total


@dataclass(frozen=True)
class ScalarMatrix:
    """Square matrix of Scalars."""

    rows: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(row) != n for row in self.rows):
            raise DimensionMismatch("matrix must be square")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "ScalarMatrix":
        return cls(tuple(tuple(as_scalar(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "ScalarMatrix":
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(n))
                         for i in range(n)))

    @classmethod
    def diagonal(cls, entries: Iterable) -> "ScalarMatrix":
        diag = [as_scalar(x) for x in entries]
        n = len(diag)
        return cls(tuple(tuple(diag[i] if i == j else ZERO for j in range(n))
                         for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> Column:
        return tuple(row[j] for row in self.rows)

    def apply(self, vector: Sequence[Scalar]) -> Column:
        """Matrix-vector product, exact."""
        if len(vector) != self.n:
            raise DimensionMismatch(
                f"matrix of size {self.n} applied to vector of length {len(vector)}")
        return tuple(_dot(row, vector) for row in self.rows)

    def __matmul__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if self.n != other.n:
            raise DimensionMismatch("matrix sizes differ")
        cols = [other.column(j) for j in range(other.n)]
        return ScalarMatrix(tuple(tuple(_dot(row, col) for col in cols)
                                  for row in self.rows))

    def map_entries(self, func) -> "ScalarMatrix":
        return ScalarMatrix(tuple(tuple(func(x) for x in row) for row in self.rows))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "ScalarMatrix":
        """Submatrix on the given 0-based index sets (must stay square)."""
        return ScalarMatrix(tuple(tuple(self.rows[i][j] for j in col_idx)
                                  for i in row_idx))

    def is_diagonal(self) -> bool:
        return all(self.rows[i][j].is_zero()
                   for i in range(self.n) for j in range(self.n) if i != j)

    def char_poly(self) -> UniPoly:
        """Monic characteristic polynomial det(x*I - A), by Berkowitz.

        Division-free: only ring additions and multiplications are used.
        """
        n = self.n
        vec = [ONE]
        for r in range(1, n + 1):
            a = self.rows[r - 1][r - 1]
            toeplitz_col = [ONE, -a]
            if r >= 2:
                row_part = self.rows[r - 1][: r - 1]
                work = [self.rows[i][r - 1] for i in range(r - 1)]
                toeplitz_col.append(-_dot(row_part, work))
                for _ in range(r - 2):
                    work = [_dot(self.rows[i][: r - 1], work) for i in range(r - 1)]
                    toeplitz_col.append(-_dot(row_part, work))
            vec = [
                sum((toeplitz_col[i - j] * vec[j] for j in range(max(0, i - r), min(i + 1, r))),
                    ZERO)
                for i in range(r + 1)
            ]
        return UniPoly(reversed(vec))

    def det(self) -> Scalar:
        """Exact determinant, division-free."""
        constant = self.char_poly().coefficient(0)
        return constant if self.n % 2 == 0 else -constant

    def inverse_unit(self) -> "ScalarMatrix":
        """Exact inverse of a matrix whose determinant is a unit c*t^k.

        Computes the adjugate by fraction-free Gauss-Jordan elimination, then
        divides by the unit determinant.  Raises :class:`NotAUnit` when the
        determinant has several terms, involves alpha, or vanishes.
        """
        n = self.n
        work = [list(self.rows[i]) + [ONE if i == j else ZERO for j in range(n)]
                for i in range(n)]
        width = 2 * n
        previous = ONE
        for k in range(n):
            pivot_row = next((i for i in range(k, n) if not work[i][k].is_zero()), None)
            if pivot_row is None:
                raise NotAUnit("determinant is zero")
            if pivot_row != k:
                work[k], work[pivot_row] = work[pivot_row], work[k]
            pivot = work[k][k]
            for i in range(n):
                if i == k:
                    continue
                factor = work[i][k]
                row = work[i]
                pivot_row_values = work[k]
                for j in range(width):
                    row[j] = (pivot * row[j] - factor * pivot_row_values[j]).exact_div(previous)
            previous = pivot
        scaled_det = work[n - 1][n - 1]
        if not scaled_det.is_unit_monomial():
            raise NotAUnit(f"determinant {scaled_det} is not of the form c*t^k")
        inv_det = scaled_det.inverse_unit()
        return ScalarMatrix(tuple(tuple(work[i][n + j] * inv_det for j in range(n))
                                  for i in range(n)))

    def __str__(self):
        return "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.rows)


# -- rational matrices ------------------------------------------------------


def _row_to_integers(row: Sequence[Fraction]) -> list[int]:
    denom_lcm = 1
    for x in row:
        d = x.denominator
        denom_lcm = denom_lcm * d // gcd(denom_lcm, d)
    return [int(x * denom_lcm) for x in row]


def _bareiss_echelon(m: list[list[int]]) -> list[tuple[int, int]]:
    """In-place fraction-free row echelon; returns the pivot positions.

    Pivot choice is the first nonzero entry in row-major order, which makes
    every downstream basis deterministic.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots: list[tuple[int, int]] = []
    previous = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        for i in range(r + 1, n_rows):
            factor = m[i][c]
            row = m[i]
            top = m[r]
            for j in range(c + 1, n_cols):
                row[j] = (pivot * row[j] - factor * top[j]) // previous
            row[c] = 0
        previous = pivot
        pivots.append((r, c))
        r += 1
    return pivots


def _primitive(vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale to a primitive integer vector with positive leading entry."""
    denom_lcm = 1
    for x in vector:
        d = x.denominator
        denom_lcm = denom_lcm * d // gcd(denom_lcm, d)
    ints = [int(x * denom_lcm) for x in vector]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g == 0:
        return tuple(Fraction(0) for _ in ints)
    lead = next(v for v in ints if v)
    if lead < 0:
        g = -g
    return tuple(Fraction(v, g) for v in ints)


@dataclass(frozen=True)
class RationalMatrix:
    """Rectangular matrix of exact rationals."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        widths = {len(row) for row in self.rows}
        if len(widths) > 1:
            raise DimensionMismatch("ragged rows")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def _integer_copy(self) -> list[list[int]]:
        return [_row_to_integers(row) for row in self.rows]

    def nullspace(self) -> list[tuple[Fraction, ...]]:
        """Basis of the right nullspace; empty iff full column rank.

        One basis vector per free column, each normalized to a primitive
        integer vector with positive leading entry.
        """
        n_cols = self.n_cols
        if not self.rows or n_cols == 0:
            return [tuple(Fraction(1) if j == f else Fraction(0) for j in range(n_cols))
                    for f in range(n_cols)]
        m = self._integer_copy()
        pivots = _bareiss_echelon(m)
        pivot_cols = [c for _, c in pivots]
        free_cols = [c for c in range(n_cols) if c not in pivot_cols]
        basis = []
        for free in free_cols:
            vec = [Fraction(0)] * n_cols
            vec[free] = Fraction(1)
            for r, c in reversed(pivots):
                if c > free:
                    continue
                total = sum((Fraction(m[r][j]) * vec[j] for j in range(c + 1, n_cols)),
                            Fraction(0))
                vec[c] = -total / m[r][c]
            basis.append(_primitive(vec))
        return basis

    def row_space_basis(self) -> list[tuple[Fraction, ...]]:
        """Deterministic basis of the row space (normalized echelon rows)."""
        if not self.rows or self.n_cols == 0:
            return []
        m = self._integer_copy()
        pivots = _bareiss_echelon(m)
        return [_primitive([Fraction(x) for x in m[r]]) for r, _ in pivots]


def span_basis(vectors: Iterable[Sequence[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Basis of the span of the given rational vectors (deterministic)."""
    rows = [tuple(Fraction(x) for x in v) for v in vectors]
    rows = [r for r in rows if any(r)]
    if not rows:
        return []
    return RationalMatrix(tuple(rows)).row_space_basis()
