"""Exact isomorphism invariants of rational specializations.

All invariants here are computed over Q after substituting rational values
for t and alpha, never over the rational-function field.  The series, the
center and the derivation algebra are cut out by equations homogeneous in
the structure constants, so scaling every constant by one nonzero number
changes no span, kernel or reduced row echelon form: the common denominator
of a specialization is cleared once, when it is built.  A specialization is
stored once, as one antisymmetrized table of its nonzero int constants
(:class:`RationalAlgebra`), built in one pass over the nonzero entries of
the symbolic bracket, each entry's terms evaluated at (t, alpha) into one
term map.  Every linear system and spanning set below is built from that
table as the sparse int rows ``{column: int}`` that the kernel of
:mod:`filicert.linalg` takes; a zero product is never one of them.
Ranks can drop at unsampled special parameter values, so reports always
carry the sampled points alongside the verdicts.

A series starts at V_1, the span of its table's values (each product of two
basis vectors is one); for the lower central and the derived series that is
[g,g], spanned once per specialization (:attr:`RationalAlgebra.derived_basis`).
Series computations stop at the first repeated dimension; monotonicity of
the lower central and derived series guarantees stabilization within the
dimension of the algebra.  A profile therefore either ends in 0 (nilpotent
or solvable) or repeats its final nonzero value once as the stabilization
witness; a perfect algebra stops at V_1.

An algebra is characteristically nilpotent when every derivation is
nilpotent (Dixmier-Lister).  By Engel's theorem that holds iff the flag
V, Der.V, Der.(Der.V), ... reaches 0 within dim V steps, which is what is
tested.  For a nilpotent algebra of dimension >= 2 it is equivalent to the
nilpotency of Der as a Lie algebra (Leger-Togo); in dimension 1, Der = gl(1)
is abelian but its identity derivation is not nilpotent.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import combinations, product
from math import lcm
from typing import Mapping

from ._record import FrozenRecord
from .errors import ValidationError
from .lie import Cochain2
from .linalg import RationalMatrix, span_basis
from .scalar import Scalar

Matrix = tuple[tuple[int, ...], ...]

SeriesProfile = tuple[int, ...]


class RationalAlgebra(FrozenRecord):
    """A rational bracket scaled to int structure constants: ``table`` maps
    (a, b) and (b, a) to the nonzero entries ((k, value), ...) of [b_a, b_b],
    0-based, the (b, a) values negated."""

    def __init__(self, dim: int, table: Mapping[tuple[int, int], tuple[tuple[int, int], ...]],
                 name: str = ""):
        self.__dict__.update(dim=dim, table=table, name=name)

    @classmethod
    def from_structure(cls, mu: Cochain2, t=None, alpha=None) -> "RationalAlgebra":
        """Specialize a symbolic bracket at rational parameter values, then
        multiply it by the lcm of its denominators: every structure constant
        becomes an int, and no invariant here changes.  One pass over the
        nonzero entries of ``mu``, each evaluated into one term map
        (:meth:`Scalar.specialized_terms`); no specialized cochain is built."""
        constants = {}
        for key, column in mu.entries.items():
            nonzero = []
            for k, entry in enumerate(column):
                if not entry._terms:
                    continue
                terms = entry.specialized_terms(t, alpha)
                value = terms.pop((0, 0), 0)
                if any(terms.values()):
                    raise ValidationError(f"entry {key} still symbolic after specialization: "
                                          f"{Scalar({**terms, (0, 0): value})}")
                if value:
                    nonzero.append((k, value))
            if nonzero:
                constants[key] = nonzero
        scale = lcm(*(x.denominator for column in constants.values() for _, x in column))
        table = {}
        for (i, j), column in constants.items():
            ints = tuple((k, x.numerator * (scale // x.denominator)) for k, x in column)
            table[i - 1, j - 1] = ints
            table[j - 1, i - 1] = tuple((k, -x) for k, x in ints)
        return cls(mu.dim, table, mu.name)

    @cached_property
    def derivations(self) -> tuple[Matrix, ...]:
        """The basis of Der that :func:`derivation_algebra` returns, computed
        on first use and cached outside the record's fields, like
        :attr:`filicert.lie.Cochain2.table`."""
        return _derivation_basis(self)

    @cached_property
    def derived_basis(self) -> tuple[dict[int, int], ...]:
        """A basis of [g,g], the span of the table's values (each pair once),
        where both series start; cached like :attr:`derivations`."""
        return tuple(span_basis(dict(c) for (a, b), c in self.table.items() if a < b))


def _series(dim: int, table, left, pairs, first) -> SeriesProfile:
    """Dimensions of V_0 = Q^dim, V_1, ... until stabilization, on sparse
    int vectors: V_1 has the basis ``first``, the span of the table's values,
    and V_{m+1} is the span of the nonempty products u.v over (u, v) in
    pairs(left, V_m), table[a, b] the nonzero entries of e_a.e_b."""
    current = first
    dims = [dim, len(first)]
    while dims[-1] and dims[-1] != dims[-2]:
        products = []
        for u, v in pairs(left, current):
            out: dict[int, int] = {}
            for a, x in u.items():
                for b, y in v.items():
                    for k, z in table.get((a, b), ()):
                        out[k] = out.get(k, 0) + x * y * z
            if out:
                products.append(out)
        current = span_basis(products)
        dims.append(len(current))
    return tuple(dims)


def lower_central_series(algebra: RationalAlgebra) -> SeriesProfile:
    """Dimensions of g, [g,g], [g,[g,g]], ... until stabilization."""
    return _series(algebra.dim, algebra.table, [{a: 1} for a in range(algebra.dim)],
                   product, algebra.derived_basis)


def derived_series(algebra: RationalAlgebra) -> SeriesProfile:
    """Dimensions of g, [g,g], [[g,g],[g,g]], ... until stabilization."""
    return _series(algebra.dim, algebra.table, (),
                   lambda _, current: combinations(current, 2), algebra.derived_basis)


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
    for (a, i), column in algebra.table.items():
        for k, z in column:
            rows[i, k][a] = z
    return len(RationalMatrix(tuple(rows.values()), algebra.dim).nullspace())


def _derivation_basis(algebra: RationalAlgebra) -> tuple[Matrix, ...]:
    """The nullspace of the derivation system over all basis pairs (n^2
    unknowns, one equation per pair i < j and component k), each vector read
    row by row as a matrix."""
    n = algebra.dim
    table = algebra.table
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
    of the current vectors under the basis derivations, from the span of
    the action's values, e_d.e_c being column c of derivation d.  For a
    nilpotent algebra of dimension >= 2 it is the same as "Der is nilpotent"
    (Leger-Togo); on a non-nilpotent algebra both are false.
    """
    n = algebra.dim
    der_dim, der_basis = derivation_algebra(algebra)
    action = {(d, c): column for d, matrix in enumerate(der_basis) for c in range(n)
              if (column := tuple((r, row[c]) for r, row in enumerate(matrix) if row[c]))}
    return _series(n, action, [{d: 1} for d in range(der_dim)], product,
                   span_basis(map(dict, action.values())))[-1] == 0
