"""Exact matrix algebra over Scalars and over rationals.

Determinants and characteristic polynomials of :class:`ScalarMatrix` are
division-free, so valid over the Laurent ring Q[alpha][t, 1/t]; a
characteristic polynomial is the tuple of its n + 1 coefficients, that of x^k
at index k.  det(x*I - A) is the product of its factors over the strongly
connected components of the pattern of A's nonzero off-diagonal entries,
which make A block triangular in topological order: x - a_kk for a
singleton component k, and for a cyclic component C the Berkowitz algorithm,
run on L*C with L the lcm of its coefficient denominators, so on int
coefficients; chi_{L*C}(x) = L^m chi_C(x/L), so the coefficient of x^k is
divided back by L^(m-k).  A matrix triangular up to a permutation runs no
Berkowitz.  Berkowitz, like :func:`expand`, accumulates each coefficient in
one ``{(e_t, e_alpha): coefficient}`` map over the nonzero products only
(:func:`filicert.scalar.add_product`) and makes a Scalar once; a Toeplitz
column ends at the first zero work vector or at once for a zero row part.
:meth:`ScalarMatrix.apply` adds v_m times column m for the nonzero v_m only,
from the nonzero entries of each column, cached on first use outside the
record's fields; it forms the dense product's nonzero products in the same
order, so its values are the dense ones.

:class:`RationalMatrix` and :func:`span_basis` compute nullspaces and row
spaces over Q by sparse Gauss-Jordan elimination on int rows ``{column:
int}``; scaling a row changes neither, so rational rows come in with their
denominators cleared.  The rows are taken sparsest first (Markowitz), and a
unit pivot row {c: 1} clears column c from another row by deleting the
entry.  Both are read off the reduced row echelon form, which is canonical,
so every output is deterministic and independent of the order of the rows.
Their vectors are primitive integer vectors with positive leading entry:
sparse rows for row spaces, int tuples for nullspaces.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import Iterable, Mapping, Sequence

from ._record import FrozenRecord
from .errors import DimensionMismatch
from .scalar import ONE, ZERO, Scalar, Terms, add_product, as_scalar, from_terms

Column = tuple[Scalar, ...]


_MINUS_ONE = Scalar.from_rational(-1)


def _berkowitz(rows: Sequence[Sequence[Scalar]]) -> list[Scalar]:
    """The coefficients of det(x*I - A), leading first, of the square matrix
    with the given rows, by Berkowitz's division-free algorithm.

    Step r multiplies the coefficients so far by the lower triangular
    Toeplitz matrix with first column 1, -c_1, ..., -c_r: c_1 = a, the
    diagonal entry, and c_d = R A'^(d-2) C, with R the row and C the column
    left of and above it and A' the leading (r-1)x(r-1) block.  The column
    ends at the first zero work vector A'^k C, or at once for a zero R:
    every later entry is zero.  Each entry and each coefficient is
    accumulated in one term map over the nonzero products only.
    """
    n = len(rows)
    vec = [ONE]
    for r in range(1, n + 1):
        last = rows[r - 1]
        column = [last[r - 1]]
        row_part = {k: x for k, x in enumerate(last[: r - 1]) if x._terms}
        work = {i: rows[i][r - 1] for i in range(r - 1) if rows[i][r - 1]._terms}
        while row_part and work:
            terms: Terms = {}
            for k, w in work.items():
                if k in row_part:
                    add_product(terms, ONE, row_part[k], w)
            column.append(from_terms(terms))
            if len(column) == r:
                break
            products = {}
            for i in range(r - 1):
                row, terms = rows[i], {}
                for k, w in work.items():
                    if row[k]._terms:
                        add_product(terms, ONE, row[k], w)
                if (entry := from_terms(terms))._terms:
                    products[i] = entry
            work = products
        coefficients: list[Terms] = [dict(v._terms) for v in vec] + [{}]
        for j, v in enumerate(vec):
            if v._terms:
                for k, c in enumerate(column[: r - j], start=j + 1):
                    if c._terms:
                        add_product(coefficients[k], _MINUS_ONE, c, v)
        vec = [from_terms(terms) for terms in coefficients]
    return vec


def _cyclic_components(rows: Sequence[Sequence[Scalar]]) -> list[tuple[int, ...]]:
    """The strongly connected components of more than one index of the
    pattern i -> j of the nonzero off-diagonal a_ij, each sorted: reach[i],
    the bit set of the indices i reaches, is closed by Warshall's algorithm,
    and a cyclic i, one that reaches itself, lies with those that reach i."""
    n = len(rows)
    reach = [sum(1 << j for j, x in enumerate(row) if x._terms and j != i)
             for i, row in enumerate(rows)]
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    cyclic = [i for i in range(n) if reach[i] >> i & 1]
    return list(dict.fromkeys(tuple(j for j in cyclic if reach[i] >> j & 1 and reach[j] >> i & 1)
                              for i in cyclic))


def expand(roots: Iterable[Scalar], polys: Iterable[Sequence[Scalar]] = ()) -> tuple[Scalar, ...]:
    """The coefficients of prod_r (x - r) * prod p, that of x^k at index k,
    each accumulated in one term map per factor."""
    product = [ONE]
    for factor in [*((-r, ONE) for r in roots), *polys]:
        terms: list[Terms] = [{} for _ in range(len(product) + len(factor) - 1)]
        for i, p in enumerate(product):
            for j, q in enumerate(factor):
                add_product(terms[i + j], ONE, p, q)
        product = [from_terms(t) for t in terms]
    return tuple(product)


def factors_det(roots: Iterable[Scalar], polys: Iterable[Sequence[Scalar]]) -> Scalar:
    """det A from :meth:`ScalarMatrix.char_factors`: the roots times each
    cyclic component's determinant (-1)^m p[0]."""
    return prod((p[0] if len(p) % 2 else -p[0] for p in polys), start=prod(roots, start=ONE))


class ScalarMatrix(FrozenRecord):
    """Square matrix of Scalars."""

    def __init__(self, rows: tuple[tuple[Scalar, ...], ...]):
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("matrix must be square")
        self.__dict__["rows"] = rows

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

    def scaled(self, factor: int | Fraction) -> "ScalarMatrix":
        """factor * self, scaling only the nonzero entries (:meth:`Scalar.scaled`)."""
        return ScalarMatrix(tuple(tuple(s.scaled(factor) if s._terms else s for s in row)
                                  for row in self.rows))

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

    def char_factors(self) -> tuple[list[Scalar], list[tuple[Scalar, ...]]]:
        """(roots, polys) with det(x*I - A) = prod (x - r) * prod p: a root
        a_kk per singleton component, and the characteristic polynomial of
        each cyclic component (:func:`_cyclic_components`)."""
        cyclic = _cyclic_components(self.rows)
        inside = set().union(*cyclic)
        roots = [row[k] for k, row in enumerate(self.rows) if k not in inside]
        polys = []
        for component in cyclic:
            block = self if len(component) == self.n else self.submatrix(component, component)
            scale = block.denominator()
            vec = _berkowitz(block.rows if scale == 1 else block.scaled(scale).rows)
            polys.append(tuple(c.scaled(Fraction(1, scale ** i)) for i, c in enumerate(vec))[::-1])
        return roots, polys

    def char_poly(self) -> tuple[Scalar, ...]:
        """Monic det(x*I - A), the product of :meth:`char_factors`; the
        coefficient of x^k is at index k, so the last one is ONE."""
        return expand(*self.char_factors())

    def det(self) -> Scalar:
        """Exact determinant, division-free."""
        return factors_det(*self.char_factors())

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
    column; the incoming rows are copied without their zero entries, never
    changed, and taken sparsest first (Markowitz's order), so the short rows
    become pivots before the long rows they would reduce.  Each one is
    reduced against the pivot rows so far; a nonzero remainder becomes a
    pivot row and is eliminated from the others.  A unit pivot row {c: 1}
    clears column c by deleting the entry, with no arithmetic.  The RREF of
    a row space is unique, so the result depends neither on the order of the
    rows nor on repeated or zero rows.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(({c: x for c, x in values.items() if x} for values in rows), key=len):
        for c in [c for c in row if c in pivots]:
            if len(pivots[c]) == 1:
                del row[c]
            else:
                _eliminate(row, pivots[c], c)
        if row:
            _normalize(row)
            lead = min(row)
            for other in pivots.values():
                if lead in other:
                    if len(row) == 1:
                        del other[lead]
                        _normalize(other)
                    else:
                        _eliminate(other, row, lead)
            pivots[lead] = row
    return pivots


class RationalMatrix(FrozenRecord):
    """Rectangular matrix over Q as sparse int rows {column: int}, each row
    read up to a nonzero factor, with its column count."""

    def __init__(self, rows: tuple[Mapping[int, int], ...], n_cols: int):
        if any(c < 0 or c >= n_cols for row in rows for c in row):
            raise DimensionMismatch(f"column index outside range({n_cols})")
        self.__dict__.update(rows=rows, n_cols=n_cols)

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
