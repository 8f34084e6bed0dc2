"""Exact isomorphism invariants of rational specializations.

All invariants here are computed over Q after substituting rational values
for t and alpha, never over the rational-function field.  The series, the
center and the derivation algebra are cut out by equations homogeneous in
the structure constants, so scaling every constant by one nonzero number
changes no span, kernel or reduced row echelon form: the common denominator
of a specialization is cleared once, when it is built, and everything below
runs on ints.  Ranks can drop at unsampled special parameter values, so
reports always carry the sampled points alongside the verdicts.

Series computations stop at the first repeated dimension; monotonicity of
the lower central and derived series guarantees stabilization within the
dimension of the algebra.  A profile therefore either ends in 0 (nilpotent
or solvable) or repeats its final nonzero value once as the stabilization
witness.

An algebra is characteristically nilpotent when every derivation is
nilpotent (Dixmier-Lister).  By Engel's theorem that holds iff the flag
V, Der.V, Der.(Der.V), ... reaches 0 within dim V steps, which is what is
tested.  For a nilpotent algebra of dimension >= 2 it is equivalent to the
nilpotency of Der as a Lie algebra (Leger-Togo); in dimension 1, Der = gl(1)
is abelian but its identity derivation is not nilpotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import lcm
from numbers import Rational
from typing import Mapping

from .errors import ValidationError
from .lie import Cochain2
from .linalg import RationalMatrix, span_basis

Matrix = tuple[tuple[Rational, ...], ...]

SeriesProfile = tuple[int, ...]


@dataclass(frozen=True)
class RationalAlgebra:
    """A rational bracket scaled to int structure constants."""

    dim: int
    table: Mapping[tuple[int, int], tuple[int, ...]]
    name: str = ""

    @classmethod
    def from_structure(cls, mu: Cochain2, t=None, alpha=None) -> "RationalAlgebra":
        """Specialize a symbolic bracket at rational parameter values, then
        multiply it by the lcm of its denominators: every structure constant
        becomes an int, and no invariant here changes."""
        specialized = mu
        if t is not None:
            specialized = specialized.eval_t(t)
        if alpha is not None:
            specialized = specialized.eval_alpha(alpha)
        table = {}
        for key, column in specialized.entries.items():
            for entry in column:
                if not entry.is_constant():
                    raise ValidationError(
                        f"entry {key} still symbolic after specialization: {entry}")
            table[key] = [entry.constant_value() for entry in column]
        scale = lcm(*(x.denominator for column in table.values() for x in column))
        return cls(mu.dim, {key: tuple(x.numerator * (scale // x.denominator) for x in column)
                            for key, column in table.items()}, mu.name)

    def bracket(self, i: int, j: int) -> tuple[int, ...]:
        if i <= j:  # the table holds only pairs i < j
            return self.table.get((i, j), (0,) * self.dim)
        return tuple(-x for x in self.table.get((j, i), (0,) * self.dim))


def _series(algebra: RationalAlgebra, pairs) -> SeriesProfile:
    """Dimensions of V_0 = g, V_1, ... with V_{m+1} the span of [u, v] over
    (u, v) in pairs(g, V_m), until stabilization.  Vectors are sparse
    (0-based index, int) pairs; the nonzero entries of every bracket column
    are read once."""
    columns = {}
    for (i, j), column in algebra.table.items():
        entries = [(k, x) for k, x in enumerate(column) if x]
        columns[i - 1, j - 1] = entries
        columns[j - 1, i - 1] = [(k, -x) for k, x in entries]
    full = [[(i, 1)] for i in range(algebra.dim)]
    current = full
    dims = [algebra.dim]
    while True:
        products = []
        for u, v in pairs(full, current):
            out = [0] * algebra.dim
            for a, x in u:
                for b, y in v:
                    for k, z in columns.get((a, b), ()):
                        out[k] += x * y * z
            products.append(out)
        current = [[(k, x) for k, x in enumerate(vector) if x]
                   for vector in span_basis(products)]
        dims.append(len(current))
        if dims[-1] == 0 or dims[-1] == dims[-2]:
            return tuple(dims)


def lower_central_series(algebra: RationalAlgebra) -> SeriesProfile:
    """Dimensions of g, [g,g], [g,[g,g]], ... until stabilization."""
    return _series(algebra, product)


def derived_series(algebra: RationalAlgebra) -> SeriesProfile:
    """Dimensions of g, [g,g], [[g,g],[g,g]], ... until stabilization."""
    return _series(algebra, lambda full, current: combinations(current, 2))


def filiform_profile(dim: int) -> SeriesProfile:
    """The maximal-class profile (n, n-2, n-3, ..., 1, 0)."""
    return (dim,) + tuple(range(dim - 2, -1, -1))


def is_filiform(algebra: RationalAlgebra) -> bool:
    """True iff the algebra is nilpotent of maximal class."""
    return lower_central_series(algebra) == filiform_profile(algebra.dim)


def center_dim(algebra: RationalAlgebra) -> int:
    """Dimension of {x : [x, b_i] = 0 for all i}, by exact nullspace."""
    n = algebra.dim
    rows = []
    for i in range(1, n + 1):
        columns = [algebra.bracket(j, i) for j in range(1, n + 1)]
        for k in range(n):
            rows.append(tuple(columns[j][k] for j in range(n)))
    return len(RationalMatrix(tuple(rows)).nullspace())


def derivation_algebra(algebra: RationalAlgebra) -> tuple[int, list[Matrix]]:
    """Exact basis of {E : E[x,y] = [Ex,y] + [x,Ey]}.

    Assembles the full linear system over all basis pairs (n^2 unknowns,
    one equation per pair and component) and extracts its nullspace, so each
    basis matrix, read row by row, is a primitive integer vector.
    """
    n = algebra.dim
    unknowns = n * n
    indices = range(1, n + 1)
    brackets = {(a, b): algebra.bracket(a, b) for a in indices for b in indices}
    rows = []
    for i, j in combinations(indices, 2):
        bracket_ij = brackets[i, j]
        for k in range(n):
            # unknown (r - 1) * n + (c - 1) is the matrix entry E[r][c], 1-based
            coeffs = [0] * unknowns
            for a in indices:
                value = brackets[a, j][k]
                if value:
                    coeffs[(a - 1) * n + i - 1] += value
                value = brackets[i, a][k]
                if value:
                    coeffs[(a - 1) * n + j - 1] += value
            for m, value in enumerate(bracket_ij):
                if value:
                    coeffs[k * n + m] -= value
            rows.append(tuple(coeffs))
    # dim 1 has no pairs: one zero row gives the system its n^2 columns
    basis_vectors = RationalMatrix(tuple(rows or [(0,) * unknowns])).nullspace()
    matrices = [tuple(vec[r * n:(r + 1) * n] for r in range(n)) for vec in basis_vectors]
    return len(matrices), matrices


def is_characteristically_nilpotent(algebra: RationalAlgebra) -> bool:
    """True iff every derivation of the algebra is nilpotent (Dixmier-Lister).

    By Engel's theorem this holds iff the flag V, Der.V, Der.(Der.V), ...
    reaches 0 within dim V steps; each step spans the images of the current
    vectors under the basis derivations.  For a nilpotent algebra of
    dimension >= 2 it is the same as "Der is nilpotent" (Leger-Togo); on a
    non-nilpotent algebra both are false.  Der and flag vectors are primitive
    integer vectors (the kernel's postcondition), read as ints: products run
    over ints and nonzero derivation entries.
    """
    _, der_basis = derivation_algebra(algebra)
    derivations = [[[(c, x.numerator) for c, x in enumerate(row) if x] for row in matrix]
                   for matrix in der_basis]
    current = [[int(k == i) for k in range(algebra.dim)] for i in range(algebra.dim)]
    for _ in range(algebra.dim):
        current = span_basis(tuple(sum(x * v[c] for c, x in row) for row in matrix)
                             for matrix in derivations for v in current)
        if not current:
            return True
    return False
