"""Structure-constant calculus: brackets, Jacobi, ideals, derivations.

A bracket (or any antisymmetric bilinear map) on an n-dimensional space is
stored through its structure constants: for basis indices i < j, the column
of the value on (b_i, b_j).  Only i < j is stored and every consumer
antisymmetrizes on access, so inconsistent input is impossible by
construction.  Basis indices are 1-based throughout, matching the bundled
data files; columns are plain 0-based tuples of Scalars.

Identities such as Jacobi or the degeneration equation are bilinear or
trilinear, so checking them on basis tuples is complete; no sampling of
random vectors is ever needed for verification.

The contractions (bracket_eval, Jacobi, derivations) read one sparse table
per cochain, :attr:`Cochain2.table`: (i, j) and (j, i) map to the nonzero
entries of the column, negated for (j, i).  It is built on first use and
cached in ``__dict__`` outside the record's fields, so == and repr are
unchanged.
bracket_eval and is_derivation visit every coordinate or basis pair but form
exactly the nonzero products of the dense contraction, so every value is the
dense one.  No check of a deformation calls is_derivation or restrict: its
derivation stage reads a diagonal D as a grading of the ideal, in one pass
over the nonzero structure constants (see :mod:`filicert.deformation`).

The Jacobi residual of a linear deformation mu + t*phi expands as
J(mu) + t*dphi + t^2*J(phi): the Jacobi identity of mu, the cocycle
condition on phi and the Jacobi identity of phi are the t^0, t^1 and t^2
coefficients of one expansion, which :func:`jacobi_check` computes in one
contraction of the structure constants.  It enumerates only the triples
that some nonzero product reaches, so its cost follows the nonzero structure
constants, not the C(n, 3) triples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Iterable, Mapping

from ._record import FrozenRecord
from .errors import DimensionMismatch, ValidationError
from .linalg import ScalarMatrix
from .scalar import T, ZERO, Scalar, as_scalar

Column = tuple[Scalar, ...]


def zero_column(dim: int) -> Column:
    return (ZERO,) * dim


def basis_column(dim: int, index: int) -> Column:
    """Coordinate column of the basis vector b_index (1-based)."""
    return tuple(as_scalar(1 if k == index - 1 else 0) for k in range(dim))


def column_is_zero(column: Column) -> bool:
    return not any(x._terms for x in column)


class SubspaceSpec(FrozenRecord):
    """Coordinate subspace spanned by the listed basis indices (1-based)."""

    def __init__(self, indices: tuple[int, ...]):
        if len(set(indices)) != len(indices):
            raise ValidationError("subspace indices must be distinct")
        if any(i < 1 for i in indices):
            raise ValidationError("subspace indices must be positive")
        self.__dict__["indices"] = indices

    def __contains__(self, index: int) -> bool:
        return index in self.indices

    def __len__(self) -> int:
        return len(self.indices)


class Cochain2(FrozenRecord):
    """Antisymmetric bilinear map given by columns on basis pairs i < j."""

    def __init__(self, dim: int, entries: Mapping[tuple[int, int], Column],
                 params: frozenset[str] = frozenset(), name: str = ""):
        clean: dict[tuple[int, int], Column] = {}
        for (i, j), column in entries.items():
            if not (1 <= i < j <= dim):
                raise ValidationError(f"bracket indices ({i}, {j}) out of range")
            if len(column) != dim:
                raise DimensionMismatch(f"column for ({i}, {j}) has wrong length")
            nonzero = [s for s in column if s._terms]
            if not nonzero:
                continue
            used = frozenset().union(*(s.symbols() for s in nonzero))
            if not used <= params:
                raise ValidationError(
                    f"entry ({i}, {j}) uses undeclared parameter(s) "
                    f"{{{', '.join(map(repr, sorted(used - params)))}}}")
            clean[(i, j)] = tuple(column)
        self.__dict__.update(dim=dim, entries=clean, params=params, name=name)

    @cached_property
    def table(self) -> dict[tuple[int, int], tuple[tuple[int, Scalar], ...]]:
        """(i, j) and (j, i) -> the nonzero entries ((k, value), ...) of the
        value on (b_i, b_j), 0-based k; the (j, i) values are negated."""
        table = {}
        for (i, j), column in self.entries.items():
            nonzero = tuple((k, s) for k, s in enumerate(column) if s._terms)
            table[(i, j)] = nonzero
            table[(j, i)] = tuple((k, -s) for k, s in nonzero)
        return table

    def bracket(self, i: int, j: int) -> Column:
        """Value on (b_i, b_j), antisymmetrized for any index order."""
        if i < j:
            return self.entries.get((i, j)) or zero_column(self.dim)
        out = list(zero_column(self.dim))
        for k, s in self.table.get((i, j), ()):
            out[k] = s
        return tuple(out)

    def bracket_eval(self, x: Column, y: Column) -> Column:
        """Bilinear evaluation on arbitrary coordinate columns.

        The coefficient x_a y_b - x_b y_a of each stored pair a < b is
        gathered from the nonzero coordinates, then added times its column.
        """
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("vector length does not match the bracket dimension")
        table = self.table
        y_nonzero = [(b, yb) for b, yb in enumerate(y, start=1) if yb._terms]
        coeffs: dict[tuple[int, int], Scalar] = {}
        for a, xa in enumerate(x, start=1):
            if not xa._terms:
                continue
            for b, yb in y_nonzero:
                if (a, b) not in table:
                    continue
                # a ascends, so x_a y_b (a < b) comes before x_b y_a
                if a < b:
                    coeffs[(a, b)] = xa * yb
                else:
                    old = coeffs.get((b, a))
                    coeffs[(b, a)] = -(xa * yb) if old is None else old - xa * yb
        out = list(zero_column(self.dim))
        for pair, coeff in coeffs.items():
            if coeff._terms:
                for k, s in table[pair]:
                    out[k] = out[k] + coeff * s
        return tuple(out)

    def pairs(self) -> Iterable[tuple[int, int]]:
        """All basis pairs i < j of the underlying space."""
        return combinations(range(1, self.dim + 1), 2)

    @classmethod
    def _derived(cls, dim: int, entries: Mapping[tuple[int, int], Column],
                 params: frozenset[str], name: str) -> "Cochain2":
        """A cochain whose entries are derived from valid cochains, so are in
        range, of length dim and in the declared params: not validated again,
        only its all-zero columns dropped, as :meth:`__init__` drops them."""
        result = object.__new__(cls)
        result.__dict__.update(
            dim=dim, params=params, name=name,
            entries={key: column for key, column in entries.items()
                     if any(s._terms for s in column)})
        return result

    def _substitute(self, func, params: frozenset[str]) -> "Cochain2":
        """A substitution into every nonzero entry; zeros stay zero, and a
        column that vanishes is dropped.  The result is not validated again:
        ``params`` may only lose the substituted symbol."""
        return self._derived(self.dim, {key: tuple(func(s) if s._terms else s for s in column)
                                        for key, column in self.entries.items()},
                             params, self.name)

    def eval_t(self, t_value) -> "Cochain2":
        return self._substitute(lambda s: s.eval_t(t_value), self.params - {"t"})

    def invert_t(self) -> "Cochain2":
        return self._substitute(lambda s: s.invert_t(), self.params)

    def denominator(self) -> int:
        """The lcm of the coefficient denominators of all entries."""
        return lcm(*(coeff.denominator for column in self.entries.values()
                     for s in column for coeff in s._terms.values()))

    def scaled(self, factor: int | Fraction) -> "Cochain2":
        """factor times this cochain, for a nonzero rational factor.

        The result, a valid cochain times a nonzero constant, is not
        validated again (see :meth:`_derived`).
        """
        return self._derived(self.dim, {key: tuple(s.scaled(factor) if s._terms else s
                                                   for s in column)
                                        for key, column in self.entries.items()},
                             self.params, self.name)


class StructureConstants(Cochain2):
    """A bracket presented by structure constants.

    Membership in the variety of Lie algebras is a checked property (see
    :func:`jacobi_check`), not an enforced invariant, so that corrupted input
    can be loaded and localized.
    """


Triple = tuple[int, int, int]


class JacobiReport(FrozenRecord):
    """Jacobi residuals of mu + t*phi, with failing triples localized.

    ``failures``: (triple, residual) wherever J(mu + t*phi) is nonzero;
    ``terms``: (triple, (J(mu), dphi, J(phi))) wherever one of them is.
    """

    def __init__(self, failures: tuple[tuple[Triple, Column], ...] = (),
                 terms: tuple[tuple[Triple, tuple[Column, ...]], ...] = ()):
        self.__dict__.update(failures=failures, terms=terms)

    @property
    def ok(self) -> bool:
        return not self.failures

    def coefficient(self, degree: int) -> tuple[tuple[Triple, Column], ...]:
        """(triple, column) wherever the t^degree coefficient is nonzero."""
        return tuple((triple, columns[degree]) for triple, columns in self.terms
                     if not column_is_zero(columns[degree]))


def jacobi_check(mu: Cochain2, phi: Cochain2 | None = None) -> JacobiReport:
    """Test the Jacobi identity of mu + t*phi (of mu, without phi) on all
    basis triples, exactly.

    The residual of the triple (i, j, k) is
    [[b_i,b_j],b_k] + [[b_j,b_k],b_i] + [[b_k,b_i],b_j].  Its t^(d_a + d_b)
    coefficient gathers the products a(b(e_p, e_q), e_r) over the cyclic
    rotations (p, q, r) of the triple, with a, b in {mu, phi} of t-degree
    d_a, d_b.  They are formed from the nonzero entries only: each entry
    (m, c) of b on (p, q) times each entry of a on (m, r), for every r with
    (p, q, r) a rotation of the sorted triple, i.e. p < q < r, q < r < p or
    r < p < q.  A triple that no product reaches has a zero residual, and one
    whose products cancel is dropped, so the report, in sorted order, is the
    one of a loop over all triples.
    """
    phi = Cochain2(mu.dim, {}) if phi is None else phi
    if phi.dim != mu.dim:
        raise DimensionMismatch("dimensions differ")
    tables = (mu.table, phi.table)
    # for each table, m -> ((r, nonzero entries on (m, r)), ...)
    rows = []
    for table in tables:
        by_first: dict[int, list] = {}
        for (m, r), entries in table.items():
            by_first.setdefault(m, []).append((r, entries))
        rows.append(by_first)
    totals: dict[Triple, list[list[Scalar]]] = {}
    for d_b, b in enumerate(tables):
        for (p, q), column in b.items():
            for m, coeff in column:
                for d_a, a in enumerate(rows):
                    for r, entries in a.get(m + 1, ()):
                        if p < q < r:
                            triple = (p, q, r)
                        elif q < r < p:
                            triple = (q, r, p)
                        elif r < p < q:
                            triple = (r, p, q)
                        else:
                            continue
                        if triple not in totals:
                            totals[triple] = [[ZERO] * mu.dim for _ in range(3)]
                        total = totals[triple][d_a + d_b]
                        for n, s in entries:
                            total[n] = total[n] + coeff * s
    failures = []
    terms = []
    for triple in sorted(totals):
        columns = tuple(tuple(total) for total in totals[triple])
        if all(column_is_zero(column) for column in columns):
            continue
        terms.append((triple, columns))
        residual = tuple(a + T * (b + T * c) for a, b, c in zip(*columns))
        if not column_is_zero(residual):
            failures.append((triple, residual))
    return JacobiReport(tuple(failures), tuple(terms))


def cocycle_check(mu: Cochain2, phi: Cochain2) -> bool:
    """True iff phi is a 2-cocycle of mu: the t-linear coefficient of the
    Jacobi residual of mu + t*phi vanishes, so no sign convention is fixed."""
    return not jacobi_check(mu, phi).coefficient(1)


def is_ideal(mu: Cochain2, subspace: SubspaceSpec) -> bool:
    """True iff [g, h] lies in h coordinate-wise."""
    outside = [k for k in range(1, mu.dim + 1) if k not in subspace]
    for (i, j), column in mu.entries.items():
        if (i in subspace or j in subspace) and any(column[k - 1]._terms for k in outside):
            return False
    return True


def restrict(mu: Cochain2, subspace: SubspaceSpec) -> Cochain2:
    """Restriction to a bracket-closed coordinate subspace, reindexed 1..k."""
    order = sorted(subspace.indices)
    position = {index: pos + 1 for pos, index in enumerate(order)}
    outside = [k for k in range(1, mu.dim + 1) if k not in subspace]
    entries = {}
    for (i, j), column in mu.entries.items():
        if i in subspace and j in subspace:
            if any(column[k - 1]._terms for k in outside):
                raise ValidationError(
                    f"subspace is not closed under the bracket at ({i}, {j})")
            entries[(position[i], position[j])] = tuple(column[k - 1] for k in order)
    return type(mu)(len(order), entries, mu.params, mu.name)


def is_derivation(mu: Cochain2, matrix: ScalarMatrix) -> bool:
    """True iff matrix D satisfies D[x,y] = [Dx,y] + [x,Dy] on all basis
    pairs; [D b_i, b_j] is read off the nonzero entries of D's column i."""
    if matrix.n != mu.dim:
        raise DimensionMismatch("matrix size does not match the bracket dimension")
    table, columns = mu.table, matrix.nonzero_columns
    for i, j in mu.pairs():
        residual = list(matrix.apply(mu.bracket(i, j)))
        for m, d in columns[i - 1]:
            for n, s in table.get((m + 1, j), ()):
                residual[n] = residual[n] - d * s
        for m, d in columns[j - 1]:
            for n, s in table.get((i, m + 1), ()):
                residual[n] = residual[n] - d * s
        if not column_is_zero(residual):
            return False
    return True
