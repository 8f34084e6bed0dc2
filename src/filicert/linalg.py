"""Exact matrix algebra over Scalars and over rationals.

Determinants and characteristic polynomials of :class:`ScalarMatrix` use the
Berkowitz algorithm, which is division-free and therefore valid over the
Laurent ring Q[alpha][t, 1/t].  Inverses require a unit determinant c*t^k and
are obtained fraction-free (Bareiss/Montante form of Gauss-Jordan), so the
only division ever performed on Scalars is exact.

:class:`RationalMatrix` provides row-space and right-nullspace computations
over Q by sparse Gauss-Jordan elimination on primitive integer rows.  Both
are read off the reduced row echelon form, which is canonical, so every
output is deterministic and independent of the order of the rows.  Their
vectors are primitive integer vectors with positive leading entry: tuples of
ints for row spaces, of integral Fractions for nullspaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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


def _normalize(row: dict[int, int]) -> None:
    """Divide an integer row by its content, signed so that its leading
    entry becomes positive, in place."""
    if row:
        content = gcd(*row.values())
        if row[min(row)] < 0:
            content = -content
        if content != 1:
            for c in row:
                row[c] //= content


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], c: int) -> None:
    """Clear column c of `row` with `pivot_row` (pivot_row[c] > 0), in place,
    touching only the nonzero columns of the two rows."""
    common = gcd(pivot_row[c], row[c])
    scale, factor = pivot_row[c] // common, row[c] // common
    for k in row:
        row[k] *= scale
    for k, value in pivot_row.items():
        entry = row.get(k, 0) - factor * value
        if entry:
            row[k] = entry
        else:
            del row[k]
    _normalize(row)


def _rref(rows: Iterable[Sequence[Fraction]]) -> dict[int, dict[int, int]]:
    """Sparse Gauss-Jordan over the integers: pivot column -> RREF row.

    Rows are {column: int}, primitive, positive in their pivot (leading)
    column.  Each incoming row is reduced against the pivot rows so far; a
    nonzero remainder becomes a pivot row and is eliminated from the others.
    The RREF of a row space is unique, so the result depends neither on the
    order of the rows nor on repeated or zero rows.
    """
    pivots: dict[int, dict[int, int]] = {}
    for values in rows:
        entries = {c: x for c, x in enumerate(values) if x}
        scale = lcm(*(x.denominator for x in entries.values()))
        row = {c: x.numerator * (scale // x.denominator) for c, x in entries.items()}
        for c in [c for c in row if c in pivots]:
            _eliminate(row, pivots[c], c)
        if row:
            _normalize(row)
            lead = min(row)
            for other in pivots.values():
                if lead in other:
                    _eliminate(other, row, lead)
            pivots[lead] = row
    return pivots


@dataclass(frozen=True)
class RationalMatrix:
    """Rectangular matrix of exact rationals (Fractions or ints)."""

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

    def nullspace(self) -> list[tuple[Fraction, ...]]:
        """Basis of the right nullspace; empty iff full column rank.

        One vector per free column f of the RREF, in increasing order of f:
        vec[f] = 1, vec[c] = -row[f]/row[c] for the pivot row of each pivot
        column c, 0 elsewhere.  Postcondition: every vector is a primitive
        integer vector (all denominators 1) with positive leading entry.
        """
        n_cols = self.n_cols
        pivots = _rref(self.rows)
        basis = []
        for free in (f for f in range(n_cols) if f not in pivots):
            hits = [(c, row) for c, row in pivots.items() if free in row]
            vec = [0] * n_cols
            vec[free] = lcm(*(row[c] for c, row in hits))
            for c, row in hits:
                vec[c] = -row[free] * (vec[free] // row[c])
            content = gcd(*vec) if next(v for v in vec if v) > 0 else -gcd(*vec)
            basis.append(tuple(Fraction(v // content) for v in vec))
        return basis

    def row_space_basis(self) -> list[tuple[int, ...]]:
        """Basis of the row space: the RREF rows in pivot order, each scaled
        to a primitive int vector with positive leading entry."""
        n_cols = self.n_cols
        return [tuple(row.get(c, 0) for c in range(n_cols))
                for _, row in sorted(_rref(self.rows).items())]


def span_basis(vectors: Iterable[Sequence[Fraction]]) -> list[tuple[int, ...]]:
    """Basis of the span of rational vectors: the primitive RREF rows as
    int tuples, so the same for any order or repetition of the vectors."""
    return RationalMatrix(tuple(tuple(v) for v in vectors)).row_space_basis()
