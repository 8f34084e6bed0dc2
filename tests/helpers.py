"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import importlib.util
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm, prod
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from hypothesis import strategies as st

from filicert import AlgebraFile, RationalMatrix, Scalar, ScalarMatrix, linalg
from filicert.dataio import MAX_BITS, MAX_DEGREE, MAX_DIGITS, DeformationBlock, Erratum
from filicert.deformation import check_deformation
from filicert.errors import (DimensionMismatch, InvalidSpec, NotAUnit, ParseError,
                             ValidationError)
from filicert.invariants import Matrix, RationalAlgebra, derivation_algebra
from filicert.lie import (Cochain2, Column, JacobiReport, StructureConstants, Triple,
                          column_is_zero)
from filicert.linalg import span_basis
from filicert.scalar import ALPHA, ONE, T, ZERO, as_scalar


def load_bench_module(monkeypatch, name: str):
    """The module ``bench/<name>.py``, loaded from its file without writing
    bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextmanager
def int_max_str_digits(limit: int):
    """The interpreter's int-to-str digit limit set to ``limit`` (0: none)
    for the block, and restored after it."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def rand_fraction(rng: random.Random, span: int = 8, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def rand_nonzero_fraction(rng: random.Random, span: int = 8, max_den: int = 6) -> Fraction:
    while True:
        value = rand_fraction(rng, span, max_den)
        if value:
            return value


def rand_scalar(rng: random.Random, max_terms: int = 4, min_t: int = -3,
                max_t: int = 5, max_alpha: int = 2, allow_alpha: bool = True,
                allow_negative_t: bool = True) -> Scalar:
    terms = {}
    low_t = min_t if allow_negative_t else 0
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(low_t, max_t),
               rng.randint(0, max_alpha) if allow_alpha else 0)
        terms[key] = rand_fraction(rng)
    return Scalar(terms)


def rand_scalar_matrix(rng: random.Random, n: int, **kwargs) -> ScalarMatrix:
    return ScalarMatrix(tuple(tuple(rand_scalar(rng, **kwargs) for _ in range(n))
                              for _ in range(n)))


def rand_unit_triangular(rng: random.Random, n: int) -> ScalarMatrix:
    """Random lower-triangular matrix with monomial diagonal (unit det)."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j < i:
                row.append(rand_scalar(rng, max_terms=2, min_t=0, max_t=3,
                                       max_alpha=1))
            elif j == i:
                row.append(Scalar.term(rand_nonzero_fraction(rng),
                                       rng.randint(-2, 3)))
            else:
                row.append(ZERO)
        rows.append(tuple(row))
    return ScalarMatrix(tuple(rows))


def monomial_diagonal(rng: random.Random, n: int) -> ScalarMatrix:
    return ScalarMatrix.diagonal(
        [Scalar.term(rand_nonzero_fraction(rng), rng.randint(-2, 3))
         for _ in range(n)])


class ReferenceScalar:
    """Laurent polynomials with Fraction coefficients only: the oracle for
    the int-or-Fraction coefficients of Scalar.  ``terms`` maps
    (e_t, e_alpha) to nonzero Fractions; every operation converts first."""

    def __init__(self, terms):
        self.terms = {key: Fraction(c) for key, c in terms.items() if c}

    @classmethod
    def of(cls, scalar: Scalar) -> "ReferenceScalar":
        return cls(dict(scalar.iter_terms()))

    def __add__(self, other):
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + c
        return ReferenceScalar(terms)

    def __neg__(self):
        return ReferenceScalar({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for (a_t, a_alpha), a in self.terms.items():
            for (b_t, b_alpha), b in other.terms.items():
                key = (a_t + b_t, a_alpha + b_alpha)
                terms[key] = terms.get(key, Fraction(0)) + a * b
        return ReferenceScalar(terms)

    def __pow__(self, k: int):
        result = ReferenceScalar({(0, 0): 1})
        for _ in range(k):
            result = result * self
        return result

    def eval_t(self, value) -> "ReferenceScalar":
        terms = {}
        for (e_t, e_alpha), c in self.terms.items():
            terms[(0, e_alpha)] = terms.get((0, e_alpha), Fraction(0)) + c * Fraction(value) ** e_t
        return ReferenceScalar(terms)

    def eval_alpha(self, value) -> "ReferenceScalar":
        terms = {}
        for (e_t, e_alpha), c in self.terms.items():
            terms[(e_t, 0)] = terms.get((e_t, 0), Fraction(0)) + c * Fraction(value) ** e_alpha
        return ReferenceScalar(terms)

    def specialize(self, t_value, alpha_value) -> Fraction:
        return sum((c * Fraction(t_value) ** e_t * Fraction(alpha_value) ** e_alpha
                    for (e_t, e_alpha), c in self.terms.items()), Fraction(0))

    def __str__(self):
        chunks = []
        for (e_t, e_alpha), c in sorted(self.terms.items(), reverse=True):
            factors = []
            if e_t:
                factors.append("t" if e_t == 1 else f"t^{e_t}")
            if e_alpha:
                factors.append("alpha" if e_alpha == 1 else f"alpha^{e_alpha}")
            if not factors or abs(c) != 1:
                factors.insert(0, str(abs(c)))
            body = "*".join(factors)
            if chunks:
                chunks.append(f"- {body}" if c < 0 else f"+ {body}")
            else:
                chunks.append(f"-{body}" if c < 0 else body)
        return " ".join(chunks) or "0"


def laplace_det(matrix: ScalarMatrix) -> Scalar:
    """Cofactor-expansion determinant: the independent determinant oracle."""
    rows = matrix.rows
    n = len(rows)

    def det_of(idx_rows: tuple[int, ...], idx_cols: tuple[int, ...]) -> Scalar:
        if len(idx_rows) == 1:
            return rows[idx_rows[0]][idx_cols[0]]
        total = ZERO
        top = idx_rows[0]
        rest = idx_rows[1:]
        for position, col in enumerate(idx_cols):
            entry = rows[top][col]
            if entry.is_zero():
                continue
            minor_cols = idx_cols[:position] + idx_cols[position + 1:]
            term = entry * det_of(rest, minor_cols)
            total = total + term if position % 2 == 0 else total - term
        return total

    return det_of(tuple(range(n)), tuple(range(n)))


def random_algebra_file(rng: random.Random) -> AlgebraFile:
    """A structurally valid (not necessarily Lie) random algebra file."""
    dim = rng.randint(2, 6)
    params = ("alpha",) if rng.random() < 0.5 else ()
    name = f"rand{rng.randrange(10**6):06d}"

    def file_scalar() -> Scalar:
        # certificate entries may use t; brackets may use declared params only
        return rand_scalar(rng, max_terms=3, min_t=0, max_t=4,
                           max_alpha=2 if params else 0, allow_negative_t=False)

    def bracket_scalar() -> Scalar:
        terms = {}
        for _ in range(rng.randint(1, 2)):
            alpha_exp = rng.randint(0, 2) if params else 0
            terms[(0, alpha_exp)] = rand_fraction(rng)
        return Scalar(terms)

    basis_change = None
    if rng.random() < 0.6:
        basis_change = {}
        for i in range(1, dim + 1):
            if rng.random() < 0.8:
                basis_change[i] = tuple(rand_fraction(rng) for _ in range(dim))

    brackets = None
    if rng.random() < 0.9:
        brackets = {}
        for i in range(1, dim + 1):
            for j in range(i + 1, dim + 1):
                if rng.random() < 0.5:
                    column = [ZERO] * dim
                    for _ in range(rng.randint(1, 2)):
                        column[rng.randrange(dim)] = bracket_scalar()
                    if any(not s.is_zero() for s in column):
                        brackets[(i, j)] = tuple(column)

    deformation = None
    if brackets is not None and rng.random() < 0.6:
        outside = rng.randint(1, dim)
        ideal = tuple(k for k in range(1, dim + 1) if k != outside)
        deformation = DeformationBlock(
            ideal, outside, tuple(rand_fraction(rng) for _ in ideal))

    certificate = None
    parameter = "t"
    if rng.random() < 0.6:
        certificate = {}
        for i in range(1, dim + 1):
            certificate[(i, i)] = Scalar.t_power(rng.randint(-2, 4))
            for j in range(1, dim + 1):
                if i != j and rng.random() < 0.3:
                    value = file_scalar()
                    if not value.is_zero():
                        certificate[(i, j)] = value
        if rng.random() < 0.3:
            parameter = "1/t"

    derivation_meta = None
    if brackets is None or rng.random() < 0.2:
        derivation_meta = {}
        for i in range(1, dim + 1):
            derivation_meta[(i, i)] = rand_fraction(rng)

    errata = []
    if certificate is not None and rng.random() < 0.3:
        i, j = rng.choice(sorted(certificate))
        errata.append(Erratum(f"g {i} {j}", original=str(certificate[(i, j)]),
                              corrected=str(file_scalar()),
                              note="randomized correction entry"))

    return AlgebraFile(name=name, dim=dim, params=params,
                       basis_change=basis_change, brackets=brackets,
                       deformation=deformation, certificate=certificate,
                       certificate_parameter=parameter,
                       derivation_meta=derivation_meta, errata=tuple(errata))


# -- matrix operations only the tests use --------------------------------------
#
# Moved out of filicert, with their bodies unchanged: the matrix product, the
# fraction-free inverse of a unit-determinant matrix, the base change that
# the inverse serves, the reciprocal family t -> g(1/t), and the matrix
# constructors from rows of plain rationals.


def scalar_matrix(rows: Iterable[Iterable]) -> ScalarMatrix:
    return ScalarMatrix(tuple(tuple(as_scalar(x) for x in row) for row in rows))


def sparse(vector: Iterable) -> dict[int, int]:
    """A rational vector as a sparse int row of the kernel: its nonzero
    entries times the lcm of their denominators."""
    vector = [Fraction(x) for x in vector]
    scale = lcm(*(x.denominator for x in vector))
    return {c: int(x * scale) for c, x in enumerate(vector) if x}


def dense(row: Mapping[int, int], n_cols: int) -> tuple[int, ...]:
    return tuple(row.get(c, 0) for c in range(n_cols))


def rational_matrix(rows: Iterable[Iterable], n_cols: int | None = None) -> RationalMatrix:
    """The matrix of dense rational rows, each row's denominators cleared;
    the column count is the rows' width unless given."""
    rows = [list(row) for row in rows]
    width = n_cols if n_cols is not None else len(rows[0]) if rows else 0
    return RationalMatrix(tuple(sparse(row) for row in rows), width)


def dot(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    return sum((x * y for x, y in zip(a, b) if x._terms and y._terms), ZERO)


def matmul(a: ScalarMatrix, b: ScalarMatrix) -> ScalarMatrix:
    if a.n != b.n:
        raise DimensionMismatch("matrix sizes differ")
    cols = [b.column(j) for j in range(b.n)]
    return ScalarMatrix(tuple(tuple(dot(row, col) for col in cols)
                              for row in a.rows))


def inverse_unit(matrix: ScalarMatrix) -> ScalarMatrix:
    """Exact inverse of a matrix whose determinant is a unit c*t^k.

    Computes the adjugate by fraction-free Gauss-Jordan elimination, then
    divides by the unit determinant.  Raises :class:`NotAUnit` when the
    determinant has several terms, involves alpha, or vanishes.
    """
    n = matrix.n
    work = [list(matrix.rows[i]) + [ONE if i == j else ZERO for j in range(n)]
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


def base_change(mu: Cochain2, g: ScalarMatrix) -> StructureConstants:
    """Transport of the bracket under the basis change g.

    Returns the bracket lam with lam(x, y) = g^{-1}(mu(g x, g y)); requires
    det(g) to be a Laurent unit (raises :class:`NotAUnit` otherwise).
    """
    if g.n != mu.dim:
        raise DimensionMismatch("matrix size does not match the bracket dimension")
    g_inv = inverse_unit(g)
    params = mu.params
    for row in g.rows:
        for entry in row:
            params = params | entry.symbols()
    entries = {}
    for i, j in mu.pairs():
        column = g_inv.apply(mu.bracket_eval(g.column(i - 1), g.column(j - 1)))
        entries[(i, j)] = column
    return StructureConstants(mu.dim, entries, params, mu.name)


def reciprocal_certificate(g: ScalarMatrix) -> ScalarMatrix:
    """The family t -> g(1/t), which satisfies (*) literally whenever g
    satisfies it in the reciprocal parametrization."""
    return ScalarMatrix(tuple(tuple(s.invert_t() for s in row) for row in g.rows))


def eval_poly_at_matrix(poly: Sequence[Scalar], matrix: ScalarMatrix) -> ScalarMatrix:
    """Evaluate a coefficient tuple (x^k at index k) at a square matrix."""
    n = matrix.n
    result = ScalarMatrix(((ZERO,) * n,) * n)
    power = ScalarMatrix.identity(n)
    for coeff in poly:
        if not coeff.is_zero():
            result = ScalarMatrix(tuple(
                tuple(result.rows[i][j] + coeff * power.rows[i][j] for j in range(n))
                for i in range(n)))
        power = matmul(power, matrix)
    return result


def reference_rref(rows: Sequence[Sequence[Fraction]]) -> list[tuple[int, list[Fraction]]]:
    """Reduced row echelon form by Gauss-Jordan elimination over Fraction:
    the oracle for the sparse integer kernel of `linalg`.  Returns
    (pivot column, row) with row[pivot] == 1, in pivot order."""
    work = [[Fraction(x) for x in row] for row in rows]
    n_cols = len(work[0]) if work else 0
    found = []
    for c in range(n_cols):
        r = len(found)
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        found.append(c)
    return [(c, work[r]) for r, c in enumerate(found)]


def primitive(vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The primitive integer multiple of a nonzero rational vector with
    positive leading entry."""
    scale = lcm(*(x.denominator for x in vector))
    ints = [int(x * scale) for x in vector]
    content = gcd(*ints)
    if next(v for v in ints if v) < 0:
        content = -content
    return tuple(Fraction(v, content) for v in ints)


def reference_nullspace(rows: Sequence[Sequence[Fraction]], n_cols: int) -> list[tuple[Fraction, ...]]:
    """One primitive nullspace vector per free column of the reference RREF."""
    echelon = reference_rref(rows)
    pivots = [c for c, _ in echelon]
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for c, row in echelon:
            vec[c] = -row[free]
        basis.append(primitive(vec))
    return basis


def counted_rows(monkeypatch) -> list[int]:
    """A list that grows by the number of rows handed to each `linalg._rref`
    call, for as long as the monkeypatch lasts."""
    counts = []
    rref = linalg._rref

    def counted(rows):
        rows = list(rows)
        counts.append(len(rows))
        return rref(rows)

    monkeypatch.setattr(linalg, "_rref", counted)
    return counts


def counted_eliminations(monkeypatch) -> list[int]:
    """A list that grows by the cleared column on each `linalg._eliminate`
    call, for as long as the monkeypatch lasts."""
    calls = []
    eliminate = linalg._eliminate

    def counted(row, pivot_row, c):
        calls.append(c)
        eliminate(row, pivot_row, c)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    return calls


def rank(matrix: RationalMatrix) -> int:
    """Rank from the reference RREF."""
    return len(reference_rref([dense(row, matrix.n_cols) for row in matrix.rows]))


def map_entries(mu: Cochain2, func, params: frozenset[str] | None = None) -> Cochain2:
    """func applied to every entry of mu, zeros included, and validated again
    by the constructor; the params are mu's unless given."""
    new_entries = {key: tuple(func(s) for s in column) for key, column in mu.entries.items()}
    new_params = mu.params if params is None else params
    return type(mu)(mu.dim, new_entries, new_params, mu.name)


def eval_alpha(mu: Cochain2, alpha_value) -> Cochain2:
    """mu with a rational value substituted for alpha."""
    return map_entries(mu, lambda s: s.eval_alpha(alpha_value), mu.params - {"alpha"})


def reference_constants(mu: Cochain2, t=None, alpha=None) -> dict:
    """The plain Fraction structure constants of a specialization, unscaled,
    each entry substituted in `ReferenceScalar`'s Fraction arithmetic and its
    all-zero columns dropped: the oracle for the int tables of
    `RationalAlgebra.from_structure`."""
    def value(entry: Scalar) -> Fraction:
        reference = ReferenceScalar.of(entry)
        if t is not None:
            reference = reference.eval_t(t)
        if alpha is not None:
            reference = reference.eval_alpha(alpha)
        assert set(reference.terms) <= {(0, 0)}, f"still symbolic: {reference}"
        return reference.terms.get((0, 0), Fraction(0))

    return {key: values for key, column in mu.entries.items()
            if any(values := tuple(map(value, column)))}


def reference_algebra(mu: Cochain2, t=None, alpha=None) -> RationalAlgebra:
    """The specialization with the denominators of `reference_constants`
    cleared by Fraction arithmetic, as the int kernel needs them, in the
    table layout of `RationalAlgebra`: (a, b) and (b, a), 0-based, to the
    nonzero ((k, value), ...), negated for (b, a)."""
    constants = reference_constants(mu, t, alpha)
    scale = lcm(*(x.denominator for column in constants.values() for x in column))
    table = {}
    for (i, j), column in constants.items():
        ints = tuple((k, int(x * scale)) for k, x in enumerate(column) if x)
        table[i - 1, j - 1] = ints
        table[j - 1, i - 1] = tuple((k, -x) for k, x in ints)
    return RationalAlgebra(mu.dim, table, mu.name)


def rational_bracket(algebra: RationalAlgebra, i: int, j: int) -> tuple:
    """[b_i, b_j] (1-based) as a dense tuple, from the table."""
    out = [0] * algebra.dim
    for k, x in algebra.table.get((i - 1, j - 1), ()):
        out[k] = x
    return tuple(out)


def bracket_vec(algebra: RationalAlgebra, x: Sequence[Fraction],
                y: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """[x, y] = sum x_a y_b [b_a, b_b] by dense Fraction arithmetic over every
    table pair, both orders."""
    out = [Fraction(0)] * algebra.dim
    for (a, b), column in algebra.table.items():
        coeff = x[a] * y[b]
        if coeff:
            for k, value in column:
                out[k] += coeff * value
    return tuple(out)


def basis(algebra: RationalAlgebra) -> list[tuple[Fraction, ...]]:
    return [tuple(Fraction(1 if k == i else 0) for k in range(algebra.dim))
            for i in range(algebra.dim)]


def reference_lower_central_series(algebra: RationalAlgebra) -> tuple[int, ...]:
    """Dimensions of g, [g,g], [g,[g,g]], ... until stabilization, from dense
    Fraction brackets: the oracle for the sparse int series."""
    full = basis(algebra)
    dims = [algebra.dim]
    current = full
    while True:
        products = [bracket_vec(algebra, e, v) for e in full for v in current]
        current = [dense(row, algebra.dim) for row in span_basis(map(sparse, products))]
        dims.append(len(current))
        if dims[-1] == 0 or dims[-1] == dims[-2]:
            return tuple(dims)


def reference_derived_series(algebra: RationalAlgebra) -> tuple[int, ...]:
    """Dimensions of g, [g,g], [[g,g],[g,g]], ... until stabilization, from
    dense Fraction brackets."""
    dims = [algebra.dim]
    current = basis(algebra)
    while True:
        products = [bracket_vec(algebra, u, v) for u, v in combinations(current, 2)]
        current = [dense(row, algebra.dim) for row in span_basis(map(sparse, products))]
        dims.append(len(current))
        if dims[-1] == 0 or dims[-1] == dims[-2]:
            return tuple(dims)


def reference_center_dim(algebra: RationalAlgebra) -> int:
    """n minus the rank of the system [x, e_i] = 0 (all i), by the Fraction
    RREF."""
    n = algebra.dim
    rows = []
    for i in range(1, n + 1):
        columns = [rational_bracket(algebra, j, i) for j in range(1, n + 1)]
        rows.extend(tuple(column[k] for column in columns) for k in range(n))
    return n - len(reference_rref(rows))


def derivation_identity_holds(algebra: RationalAlgebra, matrix: Matrix) -> bool:
    """Re-verification that one matrix satisfies the derivation identity."""
    n = algebra.dim
    for i, j in combinations(range(1, n + 1), 2):
        bracket_ij = rational_bracket(algebra, i, j)
        lhs = tuple(sum(matrix[k][m] * bracket_ij[m] for m in range(n)) for k in range(n))
        col_i = tuple(matrix[k][i - 1] for k in range(n))
        col_j = tuple(matrix[k][j - 1] for k in range(n))
        e_i = tuple(Fraction(1 if k == i - 1 else 0) for k in range(n))
        e_j = tuple(Fraction(1 if k == j - 1 else 0) for k in range(n))
        rhs_first = bracket_vec(algebra, col_i, e_j)
        rhs_second = bracket_vec(algebra, e_i, col_j)
        if any(lhs[k] != rhs_first[k] + rhs_second[k] for k in range(n)):
            return False
    return True


def dense_bracket(mu: Cochain2, i: int, j: int) -> tuple[Scalar, ...]:
    """mu(b_i, b_j) read off the stored columns on i < j alone, negated here
    for i > j: the oracle for the kernel's antisymmetrized sparse table."""
    zero = (ZERO,) * mu.dim
    if i < j:
        return mu.entries.get((i, j), zero)
    if i > j:
        return tuple(-s for s in mu.entries.get((j, i), zero))
    return zero


def dense_bracket_eval(mu: Cochain2, x: Sequence[Scalar], y: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """sum_{i,j} x_i y_j mu(b_i, b_j) over all ordered basis pairs, in
    ReferenceScalar arithmetic: the oracle for Cochain2.bracket_eval, with
    no sparsity shortcut and no pairing of (i, j) with (j, i)."""
    dim = mu.dim
    out = [ReferenceScalar({}) for _ in range(dim)]
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            coeff = ReferenceScalar.of(x[i - 1]) * ReferenceScalar.of(y[j - 1])
            for k, s in enumerate(dense_bracket(mu, i, j)):
                out[k] = out[k] + coeff * ReferenceScalar.of(s)
    return tuple(Scalar(value.terms) for value in out)


def _dense_with_basis(mu: Cochain2, x: Sequence[Scalar], r: int) -> list[Scalar]:
    """mu(x, b_r) = sum_m x_m mu(b_m, b_r) over every m, with no skipping."""
    out = [ZERO] * mu.dim
    for m in range(1, mu.dim + 1):
        out = [o + x[m - 1] * s for o, s in zip(out, dense_bracket(mu, m, r))]
    return out


def _sum_columns(columns) -> list[Scalar]:
    return [sum(values, ZERO) for values in zip(*columns)]


def reference_jacobi(mu: Cochain2) -> list:
    """(triple, residual) wherever Jacobi fails, by dense bilinear evaluation
    on basis columns: the oracle for the structure-constant contraction."""
    failures = []
    for i, j, k in combinations(range(1, mu.dim + 1), 3):
        residual = tuple(_sum_columns(_dense_with_basis(mu, dense_bracket(mu, a, b), c)
                                     for a, b, c in ((i, j, k), (j, k, i), (k, i, j))))
        if not column_is_zero(residual):
            failures.append(((i, j, k), residual))
    return failures


def reference_cocycle(mu: Cochain2, phi: Cochain2) -> bool:
    """The mixed cyclic sum mu(phi(b_a,b_b), b_c) + phi(mu(b_a,b_b), b_c),
    by dense bilinear evaluation on basis columns."""
    for i, j, k in combinations(range(1, mu.dim + 1), 3):
        total = _sum_columns(_dense_with_basis(x, dense_bracket(y, a, b), c)
                            for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                            for x, y in ((mu, phi), (phi, mu)))
        if not column_is_zero(total):
            return False
    return True


def entries_equal(a: Cochain2, b: Cochain2) -> bool:
    """Entry-by-entry equality of two brackets (ignores names and params);
    the stored columns are the nonzero ones on i < j, so compare them.  With
    ``a.eval_t(0)``, the oracle for deformation.limit_check."""
    return a.dim == b.dim and a.entries == b.entries


def _jacobi_terms(mu: Cochain2, phi: Cochain2, triple: Triple) -> tuple[Column, ...]:
    """The t^0, t^1, t^2 coefficients of J(mu + t*phi) at one triple.

    Each is a cyclic sum of a(b(e_p, e_q), e_r) with a, b in {mu, phi}, where
    a(x, e_r) = sum_m x_m a(e_m, e_r) is read off the sparse tables.
    """
    i, j, k = triple
    tables = (mu.table, phi.table)
    totals = [[ZERO] * mu.dim for _ in range(3)]
    for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
        for d_b, b in enumerate(tables):
            for m, coeff in b.get((p, q), ()):
                for d_a, a in enumerate(tables):
                    total = totals[d_a + d_b]
                    for n, s in a.get((m + 1, r), ()):
                        total[n] = total[n] + coeff * s
    return tuple(tuple(total) for total in totals)


def reference_jacobi_expansion(mu: Cochain2, phi: Cochain2 | None = None) -> JacobiReport:
    """The JacobiReport of mu + t*phi by visiting every one of the C(n, 3)
    basis triples in turn: the oracle for lie.jacobi_check, which visits only
    the triples that some nonzero product reaches."""
    phi = Cochain2(mu.dim, {}) if phi is None else phi
    failures = []
    terms = []
    for triple in combinations(range(1, mu.dim + 1), 3):
        columns = _jacobi_terms(mu, phi, triple)
        if all(column_is_zero(column) for column in columns):
            continue
        terms.append((triple, columns))
        residual = tuple(a + T * (b + T * c) for a, b, c in zip(*columns))
        if not column_is_zero(residual):
            failures.append((triple, residual))
    return JacobiReport(tuple(failures), tuple(terms))


def reference_is_derivation(mu: Cochain2, matrix: ScalarMatrix) -> bool:
    """D mu(b_i, b_j) == mu(D b_i, b_j) + mu(b_i, D b_j) on every basis pair,
    by dense sums over all indices: the oracle for lie.is_derivation."""
    n, rows = mu.dim, matrix.rows
    for i, j in combinations(range(1, n + 1), 2):
        lhs = dense_apply(matrix, dense_bracket(mu, i, j))
        rhs = _sum_columns([
            _dense_with_basis(mu, [row[i - 1] for row in rows], j),
            [-s for s in _dense_with_basis(mu, [row[j - 1] for row in rows], i)]])
        if any(a != b for a, b in zip(lhs, rhs)):
            return False
    return True


def dense_apply(matrix: ScalarMatrix, vector: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Row-by-vector dot products over every entry, in ReferenceScalar
    arithmetic: the oracle for ScalarMatrix.apply."""
    return tuple(Scalar(sum((ReferenceScalar.of(a) * ReferenceScalar.of(v)
                             for a, v in zip(row, vector)), ReferenceScalar({})).terms)
                 for row in matrix.rows)


# -- hypothesis strategies for sparse exact data -------------------------------------

# Laurent monomials and short polynomials in t (negative exponents too) and
# alpha, with int and Fraction coefficients.
_coefficients = st.one_of(st.integers(-3, 3),
                          st.fractions(min_value=-3, max_value=3, max_denominator=4))
nonzero_scalars = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(0, 2)),
                                  _coefficients, min_size=1, max_size=3).map(Scalar) \
    .filter(lambda s: not s.is_zero())


@st.composite
def patterned_matrices(draw, n: int, diagonal: Sequence[Scalar] | None = None,
                       shapes=("acyclic", "mirrored", "cycle", "any")) -> ScalarMatrix:
    """Sparse n x n ScalarMatrices whose off-diagonal pattern is acyclic (up
    to 2n cells, triangular under a drawn permutation), or that pattern with
    one cell mirrored or a drawn cycle added, or any sparse pattern, as
    `shapes` allows.  The
    diagonal is the one given, or drawn with repeated, zero and
    non-monomial entries; entries have int, Fraction and alpha
    coefficients."""
    if diagonal is None:
        diagonal = draw(st.lists(st.one_of(st.sampled_from([ZERO, ONE, T, T ** 2, T + 1]),
                                           nonzero_scalars), min_size=n, max_size=n))
    cells = {}
    if n > 1:
        position = {k: p for p, k in enumerate(draw(st.permutations(range(n))))}
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        cells = draw(st.dictionaries(st.sampled_from(pairs), nonzero_scalars, max_size=2 * n))
        shape = draw(st.sampled_from(shapes))
        if shape != "any":
            cells = {(i, j): x for (i, j), x in cells.items() if position[i] < position[j]}
        if shape == "mirrored" and cells:
            i, j = draw(st.sampled_from(sorted(cells)))
            cells[(j, i)] = draw(nonzero_scalars)
        if shape == "cycle":
            loop = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
            for i, j in zip(loop, loop[1:] + loop[:1]):
                cells[(i, j)] = draw(nonzero_scalars)
    return ScalarMatrix(tuple(tuple(diagonal[i] if i == j else cells.get((i, j), ZERO)
                                    for j in range(n)) for i in range(n)))


def sparse_columns(dim: int):
    """Columns of length dim with up to three nonzero entries; the zero
    column among them."""
    return st.dictionaries(st.integers(0, dim - 1), nonzero_scalars, max_size=3).map(
        lambda entries: tuple(entries.get(k, ZERO) for k in range(dim)))


def vectors(dim: int):
    """Sparse columns, and columns with any entry nonzero."""
    return st.one_of(sparse_columns(dim),
                     st.lists(st.one_of(st.just(ZERO), nonzero_scalars),
                              min_size=dim, max_size=dim).map(tuple))


@st.composite
def cochains(draw, dim: int) -> Cochain2:
    """A Cochain2 over t and alpha on a random set of pairs i < j, some of
    whose columns are zero."""
    pairs = list(combinations(range(1, dim + 1), 2))
    keys = draw(st.sets(st.sampled_from(pairs))) if pairs else ()
    return Cochain2(dim, {key: draw(sparse_columns(dim)) for key in keys},
                    frozenset({"t", "alpha"}))


def matrices(n: int):
    """Square ScalarMatrices with sparse rows, in general not diagonal."""
    return st.lists(sparse_columns(n), min_size=n, max_size=n).map(
        lambda rows: ScalarMatrix(tuple(rows)))


def _ints(values: Sequence[Fraction]) -> tuple[int, ...]:
    """The entries of an integral rational vector as ints; a non-integral
    entry is refused, never truncated."""
    if any(Fraction(x).denominator != 1 for x in values):
        raise ValueError(f"non-integral entry in {values}")
    return tuple(int(x) for x in values)


def _matrix_product(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        out[i][j] += x * y
    return out


def _commutator(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """[a, b] = ab - ba of two integer matrices, flattened row by row."""
    ab, ba = _matrix_product(a, b), _matrix_product(b, a)
    return tuple(x - y for row_ab, row_ba in zip(ab, ba) for x, y in zip(row_ab, row_ba))


def der_is_nilpotent(algebra: RationalAlgebra) -> bool:
    """True iff the derivation algebra is nilpotent as a Lie algebra.

    Iterates V_1 = Der, V_{m+1} = span{[A, B] : A in Der, B in V_m} with
    matrix commutators; at most dim(Der) iterations are needed before the
    lower central series of Der must have stabilized.  The oracle for the
    Engel-flag test of characteristic nilpotency.  Der bases and span bases
    are integral by postcondition, so the products run over ints.
    """
    n = algebra.dim
    der_dim, der_basis = derivation_algebra(algebra)
    if der_dim == 0:
        return True
    der = [[_ints(row) for row in matrix] for matrix in der_basis]
    current = [_ints([x for row in matrix for x in row]) for matrix in der]
    for _ in range(der_dim):
        products = [sparse(_commutator(a, [v[i * n:(i + 1) * n] for i in range(n)]))
                    for a in der for v in current]
        current = [dense(v, n * n) for v in span_basis(products)]
        if not current:
            return True
    return False


def poly_from_roots(roots: Iterable) -> tuple[Scalar, ...]:
    """prod (x - r), the coefficient of x^k at index k, by Vieta's formulas."""
    roots = [as_scalar(r) for r in roots]
    n = len(roots)
    return tuple((-1) ** (n - k) * sum((prod(c, start=ONE) for c in combinations(roots, n - k)),
                                       ZERO) for k in range(n + 1))


def value_at(s: Scalar, t, alpha=0) -> Fraction:
    return s.eval_t(t).eval_alpha(alpha).constant_value()


def reference_char_poly(matrix: ScalarMatrix) -> tuple[Scalar, ...]:
    """det(x*I - A) by Berkowitz on the entries as they are, with no clearing
    of denominators, dense, with no early stop: the oracle for
    ScalarMatrix.char_poly."""
    rows, n = matrix.rows, matrix.n
    vec = [ONE]
    for r in range(1, n + 1):
        toeplitz_col = [ONE, -rows[r - 1][r - 1]]
        if r >= 2:
            row_part = rows[r - 1][: r - 1]
            work = [rows[i][r - 1] for i in range(r - 1)]
            toeplitz_col.append(-dot(row_part, work))
            for _ in range(r - 2):
                work = [dot(rows[i][: r - 1], work) for i in range(r - 1)]
                toeplitz_col.append(-dot(row_part, work))
        vec = [sum((toeplitz_col[i - j] * vec[j] for j in range(max(0, i - r), min(i + 1, r))),
                   ZERO)
               for i in range(r + 1)]
    return tuple(reversed(vec))


def reference_cyclic_components(matrix: ScalarMatrix) -> list[tuple[int, ...]]:
    """The strongly connected components of more than one index of the
    pattern i -> j of the nonzero off-diagonal entries, each sorted, in the
    order of their least index: the indices that i reaches and that reach i,
    by a depth-first search from every index.  The oracle for
    linalg._cyclic_components."""
    rows, n = matrix.rows, matrix.n
    reach = []
    for i in range(n):
        seen, todo = set(), [i]
        while todo:
            k = todo.pop()
            for j, entry in enumerate(rows[k]):
                if j != k and not entry.is_zero() and j not in seen:
                    seen.add(j)
                    todo.append(j)
        reach.append(seen)
    components = []
    for i in range(n):
        component = tuple(j for j in range(n) if j in reach[i] and i in reach[j])
        if i in reach[i] and component not in components:
            components.append(component)
    return components


def reference_eq1_residuals(mu1: Cochain2, family: Cochain2, g: ScalarMatrix):
    """(pair, mu_1(g e_i, g e_j) - g(family(e_i, e_j))) on all basis pairs,
    on the objects as they are, with no clearing of denominators: the oracle
    for deformation._eq1_residuals."""
    columns = [g.column(k) for k in range(g.n)]
    for i, j in family.pairs():
        lhs = mu1.bracket_eval(columns[i - 1], columns[j - 1])
        rhs = g.apply(family.bracket(i, j))
        yield (i, j), tuple(a - b for a, b in zip(lhs, rhs))


def reference_clear_family(mu_t: Cochain2, reciprocal: bool):
    """(M, M*mu_1, M*family) by substituting first and scaling after:
    mu_t.eval_t(1), and mu_t.invert_t() for a reciprocal family, each scaled
    by M: the oracle for deformation._clear_family, which scales mu_t once."""
    scale = mu_t.denominator()
    family = mu_t.invert_t() if reciprocal else mu_t
    return scale, mu_t.eval_t(1).scaled(scale), family.scaled(scale)


def reference_build_cocycle(spec) -> Cochain2:
    """mu_D column by column over every entry of D, validated by the Cochain2
    constructor: the oracle for deformation._build_cocycle, which reads D's
    nonzero entries only."""
    dim, order, x = spec.base.dim, sorted(spec.ideal.indices), spec.outside_index
    params = spec.base.params
    for row in spec.derivation.rows:
        for entry in row:
            params = params | entry.symbols()
    entries = {}
    for col_pos, z in enumerate(order):
        image = [ZERO] * dim
        for row_pos, target in enumerate(order):
            image[target - 1] = spec.derivation.rows[row_pos][col_pos]
        if x < z:
            entries[(x, z)] = tuple(image)
        else:
            entries[(z, x)] = tuple(-s for s in image)
    return Cochain2(dim, entries, params, f"{spec.base.name}_D")


def reference_deform(mu: Cochain2, phi: Cochain2) -> StructureConstants:
    """mu + T*phi with Scalar ring products on every pair either stores: the
    oracle for deformation.deform, which shifts t-exponents instead."""
    entries = {key: tuple(a + T * b for a, b in zip(mu.bracket(*key), phi.bracket(*key)))
               for key in set(mu.entries) | set(phi.entries)}
    return StructureConstants(mu.dim, entries, mu.params | phi.params | {"t"},
                              f"{mu.name}_t" if mu.name else "mu_t")


def reference_solve_cell(mu, ideal, outside_index, derivation, g: ScalarMatrix,
                         cell: tuple[int, int], reciprocal: bool = False) -> Scalar:
    """One certificate entry from two full evaluations of the residuals, at
    the cell set to 0 and to 1: the oracle for the exact-slope solve of
    `solve_certificate_cell`, with the same results and messages."""
    mu_t = check_deformation(mu, ideal, outside_index, derivation).mu_t
    row, col = cell

    def residuals(value: Scalar) -> dict[tuple[int, int, int], Scalar]:
        rows = [list(r) for r in g.rows]
        rows[row - 1][col - 1] = value
        candidate = ScalarMatrix(tuple(tuple(r) for r in rows))
        return {(i, j, k): component
                for (i, j), residual in reference_eq1_residuals(
                    mu_t.eval_t(1), mu_t.invert_t() if reciprocal else mu_t, candidate)
                for k, component in enumerate(residual, start=1)}

    offsets = residuals(ZERO)
    slopes = residuals(ONE)
    solution = None
    for key, offset in offsets.items():
        slope = slopes[key] - offset
        if slope.is_zero():
            if not offset.is_zero():
                raise InvalidSpec(
                    f"residual at {key} does not involve cell {cell}; "
                    "no single-cell correction exists")
            continue
        try:
            candidate = (-offset).exact_div(slope)
        except ValueError as exc:
            raise InvalidSpec(f"residual at {key} has no Laurent solution") from exc
        if solution is None:
            solution = candidate
        elif solution != candidate:
            raise InvalidSpec("residual equations are inconsistent; "
                              "no single-cell correction exists")
    if solution is None:
        raise InvalidSpec(f"cell {cell} is unconstrained by the residual equations")
    return solution

# -- the AST expression parser: the oracle for dataio's evaluating parser ------
#
# The expression parser as it was before dataio evaluated while parsing: a
# tokenizer, a recursive-descent parser that builds an Expression tree, and
# `_evaluate`, which walks the tree once.  Kept as it was, resource bounds
# included, so that the differential tests compare values and errors.


def _is_digits(text: str) -> bool:
    """True iff text is a run of at most MAX_DIGITS decimal digits."""
    return text.isdecimal() and len(text) <= MAX_DIGITS


class Expression:
    """Abstract syntax tree over rationals, symbols, and + - * ^."""

    __slots__ = ()

    def to_scalar(self, params: Iterable[str] = ("t", "alpha")) -> Scalar:
        """Elaborate a pure-scalar expression to its canonical Scalar."""
        scalar, vector = _evaluate(self, frozenset(params), None, 0)
        if vector:
            raise ValidationError("expression contains basis symbols")
        return scalar


@dataclass(frozen=True)
class Number(Expression):
    value: Fraction


@dataclass(frozen=True)
class SymbolRef(Expression):
    name: str


@dataclass(frozen=True)
class Negate(Expression):
    operand: Expression


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Power(Expression):
    base: Expression
    exponent: int


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | one of "+-*^()" | "end"
    text: str
    column: int
    value: Fraction | None = None


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    length = len(text)
    while pos < length:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        start = pos
        if ch.isdecimal():
            while pos < length and text[pos].isdecimal():
                pos += 1
            numerator, denominator = text[start:pos], "1"
            if pos < length and text[pos] == "/":
                den_start = pos + 1
                pos += 1
                while pos < length and text[pos].isdecimal():
                    pos += 1
                if pos == den_start:
                    raise ParseError("missing denominator", column=pos + 1,
                                     expected=("digit",))
                denominator = text[den_start:pos]
            if not (_is_digits(numerator) and _is_digits(denominator)):
                raise ParseError(f"number with more than {MAX_DIGITS} digits", column=start + 1)
            if int(denominator) == 0:
                raise ParseError("zero denominator", column=start + 1)
            value = Fraction(int(numerator), int(denominator))
            tokens.append(_Token("number", text[start:pos], start + 1, value))
        elif ch.isalpha():
            while pos < length and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(_Token("name", text[start:pos], start + 1))
        elif ch in "+-*^()":
            tokens.append(_Token(ch, ch, start + 1))
            pos += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", column=pos + 1)
    tokens.append(_Token("end", "", length + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(f"unexpected token {token.text or 'end of input'!r}",
                             column=token.column, expected=(kind,))
        return self.take()

    def parse(self) -> Expression:
        node = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"unexpected trailing token {tail.text!r}",
                             column=tail.column, expected=("end of input",))
        return node

    def expr(self) -> Expression:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            node = BinaryOp(op, node, self.term())
        return node

    def term(self) -> Expression:
        negations = 0
        while self.peek().kind == "-":
            self.take()
            negations += 1
        node = self.factor()
        while self.peek().kind == "*":
            self.take()
            node = BinaryOp("*", node, self.factor())
        for _ in range(negations):
            node = Negate(node)
        return node

    def factor(self) -> Expression:
        node = self.base()
        if self.peek().kind == "^":
            self.take()
            sign = 1
            if self.peek().kind == "-":
                self.take()
                sign = -1
            token = self.expect("number")
            if token.value is None or token.value.denominator != 1:
                raise ParseError("exponent must be an integer literal",
                                 column=token.column, expected=("integer",))
            node = Power(node, sign * int(token.value))
        return node

    def base(self) -> Expression:
        token = self.peek()
        if token.kind == "number":
            self.take()
            return Number(token.value)
        if token.kind == "name":
            self.take()
            return SymbolRef(token.text)
        if token.kind == "(":
            self.take()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {token.text or 'end of input'!r}",
                         column=token.column, expected=("number", "symbol", "'('"))


def reference_parse_expression(text: str) -> Expression:
    """Parse an expression into its AST (no symbol resolution yet)."""
    return _Parser(_tokenize(text)).parse()


def _size(scalar: Scalar) -> tuple[int, int]:
    """The degree in t or alpha, and the bit length of the coefficients plus
    that of the term count: what the resource bounds are checked on."""
    degree = bits = 0
    for (e_t, e_alpha), coeff in scalar.iter_terms():
        degree = max(degree, abs(e_t), e_alpha)
        bits = max(bits, coeff.numerator.bit_length(), coeff.denominator.bit_length())
    return degree, bits + scalar.term_count().bit_length()


def _check_size(kind: str, degree: int, bits: int) -> None:
    """Reject a power or a product before it is computed if the bound on its
    degree or coefficient bits exceeds the limits: the base's `_size` times
    the exponent, or the sum of the factors' sizes."""
    if degree > MAX_DEGREE or bits > MAX_BITS:
        raise ValidationError(f"{kind} too large: degree {degree} (at most "
                              f"{MAX_DEGREE}), {bits}-bit coefficients (at most {MAX_BITS})")


def _product(a: Scalar, b: Scalar) -> Scalar:
    """a * b, after `_check_size` when both factors have two or more terms; a
    product with a monomial factor grows at most by that monomial, so only
    linearly in the length of the line."""
    if a.term_count() > 1 and b.term_count() > 1:
        (degree_a, bits_a), (degree_b, bits_b) = _size(a), _size(b)
        _check_size("product", degree_a + degree_b, bits_a + bits_b)
    return a * b


def _evaluate(node: Expression, params: frozenset[str],
              basis_prefix: str | None, dim: int):
    if isinstance(node, Number):
        return Scalar.from_rational(node.value), {}
    if isinstance(node, SymbolRef):
        name = node.name
        if name == "t" and "t" in params:
            return T, {}
        if name == "alpha" and "alpha" in params:
            return ALPHA, {}
        if basis_prefix and name.startswith(basis_prefix) and name[len(basis_prefix):].isdecimal():
            digits = name[len(basis_prefix):]
            if not (_is_digits(digits) and 1 <= int(digits) <= dim):
                raise ValidationError(f"basis index {name} out of range 1..{dim}")
            return ZERO, {int(digits): Scalar.from_rational(1)}
        raise ValidationError(f"undeclared symbol {name!r}")
    if isinstance(node, Negate):
        scalar, vector = _evaluate(node.operand, params, basis_prefix, dim)
        return -scalar, {k: -v for k, v in vector.items()}
    if isinstance(node, Power):
        if node.exponent < 0 and not (isinstance(node.base, SymbolRef)
                                      and node.base.name == "t"):
            raise ValidationError("negative exponents are allowed only on t")
        scalar, vector = _evaluate(node.base, params, basis_prefix, dim)
        if vector:
            if node.exponent != 1:
                raise ValidationError("basis symbols cannot be raised to a power")
            return scalar, vector
        degree, bits = _size(scalar)
        _check_size("power", abs(node.exponent) * degree, abs(node.exponent) * bits)
        return scalar ** node.exponent, {}
    if isinstance(node, BinaryOp):
        left_s, left_v = _evaluate(node.left, params, basis_prefix, dim)
        right_s, right_v = _evaluate(node.right, params, basis_prefix, dim)
        if node.op == "+":
            merged = dict(left_v)
            for k, v in right_v.items():
                merged[k] = merged.get(k, ZERO) + v
            return left_s + right_s, merged
        if node.op == "-":
            merged = dict(left_v)
            for k, v in right_v.items():
                merged[k] = merged.get(k, ZERO) - v
            return left_s - right_s, merged
        if node.op == "*":
            if left_v and right_v:
                raise ValidationError("product of basis symbols is not linear")
            if left_v:
                return (_product(left_s, right_s),
                        {k: _product(v, right_s) for k, v in left_v.items()})
            return (_product(left_s, right_s),
                    {k: _product(left_s, v) for k, v in right_v.items()})
    raise TypeError(f"unknown expression node {node!r}")


def reference_parse_scalar(text: str, params: Iterable[str]) -> Scalar:
    """The AST parser's value of a scalar expression."""
    return reference_parse_expression(text).to_scalar(params)


def reference_parse_column(text: str, dim: int, prefix: str,
                           params: Iterable[str]) -> tuple[Scalar, ...]:
    """The AST parser's coordinate column of a linear combination."""
    node = reference_parse_expression(text)
    scalar, vector = _evaluate(node, frozenset(params), prefix, dim)
    if not scalar.is_zero():
        raise ValidationError(
            f"value must be a combination of {prefix}-symbols, found scalar part {scalar}")
    out = [ZERO] * dim
    for index, coeff in vector.items():
        out[index - 1] = coeff
    return tuple(out)
