"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

from filicert import AlgebraFile, RationalMatrix, Scalar, ScalarMatrix, UniPoly
from filicert.dataio import DeformationBlock, Erratum
from filicert.deformation import _eq1_residuals, _linear_deformation
from filicert.errors import InvalidSpec
from filicert.invariants import Matrix, RationalAlgebra, derivation_algebra
from filicert.lie import Cochain2, basis_column, column_is_zero
from filicert.linalg import span_basis
from filicert.scalar import ONE, ZERO


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


def eval_poly_at_matrix(poly: UniPoly, matrix: ScalarMatrix) -> ScalarMatrix:
    """Evaluate a UniPoly at a square matrix (x -> matrix)."""
    n = matrix.n
    result = ScalarMatrix.identity(n).map_entries(lambda s: s * ZERO)
    power = ScalarMatrix.identity(n)
    for coeff in poly.coeffs:
        if not coeff.is_zero():
            result = ScalarMatrix(tuple(
                tuple(result.rows[i][j] + coeff * power.rows[i][j] for j in range(n))
                for i in range(n)))
        power = power @ matrix
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


def rank(matrix: RationalMatrix) -> int:
    """Rank from the reference RREF."""
    return len(reference_rref(matrix.rows))


def reference_algebra(mu: Cochain2, t=None, alpha=None) -> RationalAlgebra:
    """A specialization with its plain Fraction structure constants, unscaled:
    the oracle table for the int tables of `RationalAlgebra.from_structure`."""
    specialized = mu
    if t is not None:
        specialized = specialized.eval_t(t)
    if alpha is not None:
        specialized = specialized.eval_alpha(alpha)
    table = {key: tuple(entry.constant_value() for entry in column)
             for key, column in specialized.entries.items()}
    return RationalAlgebra(mu.dim, table, mu.name)


def bracket_vec(algebra: RationalAlgebra, x: Sequence[Fraction],
                y: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """[x, y] by dense Fraction arithmetic over every table pair."""
    out = [Fraction(0)] * algebra.dim
    for (i, j), column in algebra.table.items():
        coeff = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if coeff == 0:
            continue
        for k, value in enumerate(column):
            if value:
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
        current = span_basis(products)
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
        current = span_basis(products)
        dims.append(len(current))
        if dims[-1] == 0 or dims[-1] == dims[-2]:
            return tuple(dims)


def reference_center_dim(algebra: RationalAlgebra) -> int:
    """n minus the rank of the system [x, e_i] = 0 (all i), by the Fraction
    RREF."""
    n = algebra.dim
    rows = []
    for i in range(1, n + 1):
        columns = [algebra.bracket(j, i) for j in range(1, n + 1)]
        rows.extend(tuple(column[k] for column in columns) for k in range(n))
    return n - len(reference_rref(rows))


def derivation_identity_holds(algebra: RationalAlgebra, matrix: Matrix) -> bool:
    """Re-verification that one matrix satisfies the derivation identity."""
    n = algebra.dim
    for i, j in combinations(range(1, n + 1), 2):
        bracket_ij = algebra.bracket(i, j)
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


def reference_jacobi(mu: Cochain2) -> list:
    """(triple, residual) wherever Jacobi fails, by bilinear evaluation on
    basis columns: the oracle for the structure-constant contraction."""
    failures = []
    dim = mu.dim
    for i, j, k in combinations(range(1, dim + 1), 3):
        e_i, e_j, e_k = (basis_column(dim, a) for a in (i, j, k))
        residual = tuple(x + y + z for x, y, z in zip(
            mu.bracket_eval(mu.bracket(i, j), e_k),
            mu.bracket_eval(mu.bracket(j, k), e_i),
            mu.bracket_eval(mu.bracket(k, i), e_j)))
        if not column_is_zero(residual):
            failures.append(((i, j, k), residual))
    return failures


def reference_cocycle(mu: Cochain2, phi: Cochain2) -> bool:
    """The mixed cyclic sum mu(phi(b_a,b_b), b_c) + phi(mu(b_a,b_b), b_c),
    by bilinear evaluation on basis columns."""
    dim = mu.dim
    for i, j, k in combinations(range(1, dim + 1), 3):
        total = [ZERO] * dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            e_c = basis_column(dim, c)
            for x, y in ((mu, phi), (phi, mu)):
                total = [s + u for s, u in zip(total, x.bracket_eval(y.bracket(a, b), e_c))]
        if not column_is_zero(total):
            return False
    return True


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
        products = [_commutator(a, [v[i * n:(i + 1) * n] for i in range(n)])
                    for a in der for v in current]
        current = [_ints(v) for v in span_basis(products)]
        if not current:
            return True
    return False


def reference_solve_cell(mu, ideal, outside_index, derivation, g: ScalarMatrix,
                         cell: tuple[int, int], reciprocal: bool = False) -> Scalar:
    """One certificate entry from two full evaluations of the residuals, at
    the cell set to 0 and to 1: the oracle for the exact-slope solve of
    `solve_certificate_cell`, with the same results and messages."""
    _, mu_t, mu1 = _linear_deformation(mu, ideal, outside_index, derivation)
    row, col = cell

    def residuals(value: Scalar) -> dict[tuple[int, int, int], Scalar]:
        rows = [list(r) for r in g.rows]
        rows[row - 1][col - 1] = value
        candidate = ScalarMatrix(tuple(tuple(r) for r in rows))
        return {(i, j, k): component
                for (i, j), residual in _eq1_residuals(
                    mu1, mu_t.invert_t() if reciprocal else mu_t, candidate)
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
