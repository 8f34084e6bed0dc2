"""Exact matrix algebra over Scalars and over rationals.

Determinants and characteristic polynomials of :class:`ScalarMatrix` use the
Berkowitz algorithm, which is division-free and therefore valid over the
Laurent ring Q[alpha][t, 1/t]; a characteristic polynomial is the tuple of
its n + 1 coefficients, that of x^k at index k.  Berkowitz runs on L*A, with
L the lcm of the coefficient denominators of A, so on int coefficients; since
chi_{L*A}(x) = L^n chi_A(x/L), the coefficient of x^k is L^(n-k) times that
of chi_A, and is divided back.  The ``unit-det`` stage of the certificate
check takes det g from one Berkowitz run on g's block on the ideal, which the
``spectrum`` stage needs anyway (see
:func:`filicert.deformation.run_certificate_checks`); it calls
:meth:`ScalarMatrix.det` only for a g that does not preserve its ideal.
:meth:`ScalarMatrix.apply` adds v_m times column m for the nonzero v_m only,
from the nonzero entries of each column, cached on first use outside the
dataclass fields; it forms the dense product's nonzero products in the same
order, so its values are the dense ones.

:class:`RationalMatrix` and :func:`span_basis` compute nullspaces and row
spaces over Q by sparse Gauss-Jordan elimination on int rows ``{column:
int}``; scaling a row changes neither, so rational rows come in with their
denominators cleared.  Both are read off the reduced row echelon form, which
is canonical, so every output is deterministic and independent of the order
of the rows.  Their vectors are primitive integer vectors with positive
leading entry: sparse rows for row spaces, int tuples for nullspaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch
from .scalar import ONE, ZERO, Scalar, as_scalar

Column = tuple[Scalar, ...]


def _dot(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    total = ZERO
    for x, y in zip(a, b):
        if x._terms and y._terms:
            total = total + x * y
    return total


def _berkowitz(rows: Sequence[Sequence[Scalar]]) -> list[Scalar]:
    """The coefficients of det(x*I - A), leading first, of the square matrix
    with the given rows, by Berkowitz's division-free algorithm."""
    n = len(rows)
    vec = [ONE]
    for r in range(1, n + 1):
        a = rows[r - 1][r - 1]
        toeplitz_col = [ONE, -a]
        if r >= 2:
            row_part = rows[r - 1][: r - 1]
            work = [rows[i][r - 1] for i in range(r - 1)]
            toeplitz_col.append(-_dot(row_part, work))
            for _ in range(r - 2):
                work = [_dot(rows[i][: r - 1], work) for i in range(r - 1)]
                toeplitz_col.append(-_dot(row_part, work))
        vec = [
            sum((toeplitz_col[i - j] * vec[j] for j in range(max(0, i - r), min(i + 1, r))),
                ZERO)
            for i in range(r + 1)
        ]
    return vec


@dataclass(frozen=True)
class ScalarMatrix:
    """Square matrix of Scalars."""

    rows: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(row) != n for row in self.rows):
            raise DimensionMismatch("matrix must be square")

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

    @cached_property
    def nonzero_columns(self) -> tuple[tuple[tuple[int, Scalar], ...], ...]:
        """For each column, its nonzero entries ((row, value), ...), 0-based."""
        return tuple(tuple((r, row[c]) for r, row in enumerate(self.rows) if row[c]._terms)
                     for c in range(self.n))

    def apply(self, vector: Sequence[Scalar]) -> Column:
        """Matrix-vector product, exact: the sum of v_m times column m over
        the nonzero v_m."""
        if len(vector) != self.n:
            raise DimensionMismatch(
                f"matrix of size {self.n} applied to vector of length {len(vector)}")
        out = [ZERO] * self.n
        for v, column in zip(vector, self.nonzero_columns):
            if v._terms:
                for r, entry in column:
                    out[r] = out[r] + entry * v
        return tuple(out)

    def map_entries(self, func) -> "ScalarMatrix":
        return ScalarMatrix(tuple(tuple(func(x) for x in row) for row in self.rows))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "ScalarMatrix":
        """Submatrix on the given 0-based index sets (must stay square)."""
        return ScalarMatrix(tuple(tuple(self.rows[i][j] for j in col_idx)
                                  for i in row_idx))

    def is_diagonal(self) -> bool:
        return all(r == c for c, col in enumerate(self.nonzero_columns) for r, _ in col)

    def denominator(self) -> int:
        """The lcm of the coefficient denominators of all entries."""
        return lcm(*(coeff.denominator for row in self.rows for entry in row
                     for coeff in entry._terms.values()))

    def char_poly(self) -> tuple[Scalar, ...]:
        """Monic characteristic polynomial det(x*I - A), by Berkowitz; the
        coefficient of x^k is at index k, so the last one is ONE.

        Division-free: only ring additions and multiplications are used, on
        the int coefficients of L*A, L = :meth:`denominator`; the coefficient
        of x^k is then divided by L^(n-k).
        """
        scale = self.denominator()
        vec = _berkowitz(self.map_entries(lambda s: s.scaled(scale)).rows)
        return tuple(reversed([c.scaled(Fraction(1, scale ** i)) for i, c in enumerate(vec)]))

    def det(self) -> Scalar:
        """Exact determinant, division-free."""
        constant = self.char_poly()[0]
        return constant if self.n % 2 == 0 else -constant

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


def _rref(rows: Iterable[Mapping[int, int]]) -> dict[int, dict[int, int]]:
    """Sparse Gauss-Jordan over the integers: pivot column -> RREF row.

    Rows are {column: int}, primitive, positive in their pivot (leading)
    column; the incoming rows are copied, never changed.  Each one is
    reduced against the pivot rows so far; a nonzero remainder becomes a
    pivot row and is eliminated from the others.  The RREF of a row space is
    unique, so the result depends neither on the order of the rows nor on
    repeated or zero rows.
    """
    pivots: dict[int, dict[int, int]] = {}
    for values in rows:
        row = {c: x for c, x in values.items() if x}
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
    """Rectangular matrix over Q as sparse int rows {column: int}, each row
    read up to a nonzero factor, with its column count."""

    rows: tuple[Mapping[int, int], ...]
    n_cols: int

    def __post_init__(self):
        if any(c < 0 or c >= self.n_cols for row in self.rows for c in row):
            raise DimensionMismatch(f"column index outside range({self.n_cols})")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def nullspace(self) -> list[tuple[int, ...]]:
        """Basis of the right nullspace; empty iff full column rank.

        One vector per free column f of the RREF, in increasing order of f:
        vec[f] = 1, vec[c] = -row[f]/row[c] for the pivot row of each pivot
        column c, 0 elsewhere, scaled to a primitive int vector with positive
        leading entry.
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
            basis.append(tuple(v // content for v in vec))
        return basis

    def row_space_basis(self) -> list[dict[int, int]]:
        """Basis of the row space: :func:`span_basis` of the rows."""
        return span_basis(self.rows)


def span_basis(vectors: Iterable[Mapping[int, int]]) -> list[dict[int, int]]:
    """Basis of the span of sparse int vectors: the RREF rows in pivot
    order, primitive with positive leading entry, so the same for any order
    or repetition of the vectors."""
    return [row for _, row in sorted(_rref(vectors).items())]
