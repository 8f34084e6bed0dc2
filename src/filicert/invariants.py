"""Exact isomorphism invariants of rational specializations.

All invariants here are computed over Q after substituting rational values
for t and alpha, never over the rational-function field.  The series, the
center and the derivation algebra are cut out by equations homogeneous in
the structure constants, so scaling every constant by one nonzero number
changes no span, kernel or reduced row echelon form: the common denominator
of a specialization is cleared once, when it is built.  Every linear system
and spanning set below is built from the nonzero constants as the sparse int
rows ``{column: int}`` that the kernel of :mod:`filicert.linalg` takes.
Ranks can drop at unsampled special parameter values, so reports always
carry the sampled points alongside the verdicts.

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

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import lcm
from typing import Mapping

from .errors import ValidationError
from .lie import Cochain2
from .linalg import RationalMatrix, span_basis

Matrix = tuple[tuple[int, ...], ...]

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

    @cached_property
    def sparse_table(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """(i, j) and (j, i) -> the nonzero entries ((k, value), ...) of
        [b_i, b_j], 0-based, the (j, i) values negated; cached outside the
        dataclass fields, like :attr:`filicert.lie.Cochain2.table`."""
        sparse = {}
        for (i, j), column in self.table.items():
            if nonzero := tuple((k, x) for k, x in enumerate(column) if x):
                sparse[i - 1, j - 1] = nonzero
                sparse[j - 1, i - 1] = tuple((k, -x) for k, x in nonzero)
        return sparse

    @cached_property
    def derivations(self) -> tuple[Matrix, ...]:
        """The basis of Der that :func:`derivation_algebra` returns, computed
        on first use and cached like :attr:`sparse_table`."""
        return _derivation_basis(self)


def _series(dim: int, table, left, pairs) -> SeriesProfile:
    """Dimensions of V_0 = Q^dim, V_1, ... with V_{m+1} the span of u.v over
    (u, v) in pairs(left, V_m), until stabilization, on sparse int vectors;
    the product is bilinear, table[a, b] the nonzero entries ((k, value),
    ...) of e_a.e_b."""
    current = [{i: 1} for i in range(dim)]
    dims = [dim]
    while True:
        products = []
        for u, v in pairs(left, current):
            out: dict[int, int] = {}
            for a, x in u.items():
                for b, y in v.items():
                    for k, z in table.get((a, b), ()):
                        out[k] = out.get(k, 0) + x * y * z
            products.append(out)
        current = span_basis(products)
        dims.append(len(current))
        if dims[-1] == 0 or dims[-1] == dims[-2]:
            return tuple(dims)


def lower_central_series(algebra: RationalAlgebra) -> SeriesProfile:
    """Dimensions of g, [g,g], [g,[g,g]], ... until stabilization."""
    return _series(algebra.dim, algebra.sparse_table, [{a: 1} for a in range(algebra.dim)],
                   product)


def derived_series(algebra: RationalAlgebra) -> SeriesProfile:
    """Dimensions of g, [g,g], [[g,g],[g,g]], ... until stabilization."""
    return _series(algebra.dim, algebra.sparse_table, (),
                   lambda _, current: combinations(current, 2))


def filiform_profile(dim: int) -> SeriesProfile:
    """The maximal-class profile (n, n-2, n-3, ..., 1, 0)."""
    return (dim,) + tuple(range(dim - 2, -1, -1))


def is_filiform(algebra: RationalAlgebra) -> bool:
    """True iff the algebra is nilpotent of maximal class."""
    return lower_central_series(algebra) == filiform_profile(algebra.dim)


def center_dim(algebra: RationalAlgebra) -> int:
    """Dimension of {x : [x, b_i] = 0 for all i}, by exact nullspace: one
    equation per (i, component k), sum_a x_a [b_a, b_i]_k = 0."""
    rows: dict[tuple[int, int], dict[int, int]] = defaultdict(dict)
    for (a, i), column in algebra.sparse_table.items():
        for k, z in column:
            rows[i, k][a] = z
    return len(RationalMatrix(tuple(rows.values()), algebra.dim).nullspace())


def _derivation_basis(algebra: RationalAlgebra) -> tuple[Matrix, ...]:
    """The nullspace of the derivation system over all basis pairs (n^2
    unknowns, one equation per pair i < j and component k), each vector read
    row by row as a matrix."""
    n = algebra.dim
    table = algebra.sparse_table
    rows = []
    for i, j in combinations(range(n), 2):
        # unknown r * n + c is the matrix entry E[r][c], 0-based; component k
        # of [E b_i, b_j] + [b_i, E b_j] - E [b_i, b_j] = 0
        system: dict[int, dict[int, int]] = defaultdict(dict)
        for a in range(n):
            for k, z in table.get((a, j), ()):
                system[k][a * n + i] = z
            for k, z in table.get((i, a), ()):
                system[k][a * n + j] = z
        for m, z in table.get((i, j), ()):
            for k in range(n):
                row = system[k]
                row[k * n + m] = row.get(k * n + m, 0) - z
        rows.extend(system.values())
    basis = RationalMatrix(tuple(rows), n * n).nullspace()
    return tuple(tuple(vec[r * n:(r + 1) * n] for r in range(n)) for vec in basis)


def derivation_algebra(algebra: RationalAlgebra) -> tuple[int, list[Matrix]]:
    """Exact basis of {E : E[x,y] = [Ex,y] + [x,Ey]}.

    Assembles the full linear system over all basis pairs and extracts its
    nullspace, so each basis matrix, read row by row, is a primitive integer
    vector.  Computed once per algebra (:attr:`RationalAlgebra.derivations`);
    each call returns a fresh list.
    """
    basis = algebra.derivations
    return len(basis), list(basis)


def is_characteristically_nilpotent(algebra: RationalAlgebra) -> bool:
    """True iff every derivation of the algebra is nilpotent (Dixmier-Lister).

    By Engel's theorem this holds iff the flag V, Der.V, Der.(Der.V), ...
    reaches 0.  The flag is a decreasing series: each step spans the images
    of the current vectors under the basis derivations, the product e_d.e_c
    being column c of derivation d.  For a nilpotent algebra of dimension
    >= 2 it is the same as "Der is nilpotent" (Leger-Togo); on a
    non-nilpotent algebra both are false.
    """
    n = algebra.dim
    der_dim, der_basis = derivation_algebra(algebra)
    action = {(d, c): column for d, matrix in enumerate(der_basis) for c in range(n)
              if (column := tuple((r, row[c]) for r, row in enumerate(matrix) if row[c]))}
    return _series(n, action, [{d: 1} for d in range(der_dim)], product)[-1] == 0
