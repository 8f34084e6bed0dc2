"""Structure-constant calculus: brackets, Jacobi, base change, derivations.

A bracket (or any antisymmetric bilinear map) on an n-dimensional space is
stored through its structure constants: for basis indices i < j, the column
of the value on (b_i, b_j).  Only i < j is stored and every consumer
antisymmetrizes on access, so inconsistent input is impossible by
construction.  Basis indices are 1-based throughout, matching the bundled
data files; columns are plain 0-based tuples of Scalars.

Identities such as Jacobi or the degeneration equation are bilinear or
trilinear, so checking them on basis tuples is complete; no sampling of
random vectors is ever needed for verification.

The Jacobi residual of a linear deformation mu + t*phi expands as
J(mu) + t*dphi + t^2*J(phi): the Jacobi identity of mu, the cocycle
condition on phi and the Jacobi identity of phi are the t^0, t^1 and t^2
coefficients of one expansion, which :func:`jacobi_check` computes in one
contraction of the structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

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
    return all(x.is_zero() for x in column)


@dataclass(frozen=True)
class SubspaceSpec:
    """Coordinate subspace spanned by the listed basis indices (1-based)."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValidationError("subspace indices must be distinct")
        if any(i < 1 for i in self.indices):
            raise ValidationError("subspace indices must be positive")

    def __contains__(self, index: int) -> bool:
        return index in self.indices

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class Cochain2:
    """Antisymmetric bilinear map given by columns on basis pairs i < j."""

    dim: int
    entries: Mapping[tuple[int, int], Column]
    params: frozenset[str] = frozenset()
    name: str = ""

    def __post_init__(self):
        clean: dict[tuple[int, int], Column] = {}
        for (i, j), column in self.entries.items():
            if not (1 <= i < j <= self.dim):
                raise ValidationError(f"bracket indices ({i}, {j}) out of range")
            if len(column) != self.dim:
                raise DimensionMismatch(f"column for ({i}, {j}) has wrong length")
            used = frozenset().union(*(s.symbols() for s in column))
            if not used <= self.params:
                raise ValidationError(
                    f"entry ({i}, {j}) uses undeclared parameter(s) {set(used - self.params)}")
            if not column_is_zero(column):
                clean[(i, j)] = tuple(column)
        object.__setattr__(self, "entries", clean)

    def bracket(self, i: int, j: int) -> Column:
        """Value on (b_i, b_j), antisymmetrized for any index order."""
        if i == j:
            return zero_column(self.dim)
        if i < j:
            return self.entries.get((i, j), zero_column(self.dim))
        column = self.entries.get((j, i))
        if column is None:
            return zero_column(self.dim)
        return tuple(-x for x in column)

    def bracket_eval(self, x: Column, y: Column) -> Column:
        """Bilinear evaluation on arbitrary coordinate columns.

        The coefficient x_i y_j - x_j y_i of each pair is formed only from
        the products whose two factors are both nonzero; certificate
        columns are sparse, so most pairs are skipped without a product.
        """
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("vector length does not match the bracket dimension")
        out = list(zero_column(self.dim))
        for (i, j), column in self.entries.items():
            xi, yj, xj, yi = x[i - 1], y[j - 1], x[j - 1], y[i - 1]
            if xi and yj:
                coeff = xi * yj - xj * yi if xj and yi else xi * yj
            elif xj and yi:
                coeff = -(xj * yi)
            else:
                continue
            if coeff.is_zero():
                continue
            for k, s in enumerate(column):
                if not s.is_zero():
                    out[k] = out[k] + coeff * s
        return tuple(out)

    def pairs(self) -> Iterable[tuple[int, int]]:
        """All basis pairs i < j of the underlying space."""
        return combinations(range(1, self.dim + 1), 2)

    def map_entries(self, func, params: frozenset[str] | None = None) -> "Cochain2":
        new_entries = {key: tuple(func(s) for s in column)
                       for key, column in self.entries.items()}
        new_params = self.params if params is None else params
        return type(self)(self.dim, new_entries, new_params, self.name)

    def eval_t(self, t_value) -> "Cochain2":
        return self.map_entries(lambda s: s.eval_t(t_value),
                                self.params - {"t"})

    def eval_alpha(self, alpha_value) -> "Cochain2":
        return self.map_entries(lambda s: s.eval_alpha(alpha_value),
                                self.params - {"alpha"})

    def invert_t(self) -> "Cochain2":
        return self.map_entries(lambda s: s.invert_t())


class StructureConstants(Cochain2):
    """A bracket presented by structure constants.

    Membership in the variety of Lie algebras is a checked property (see
    :func:`jacobi_check`), not an enforced invariant, so that corrupted input
    can be loaded and localized.
    """


def entries_equal(a: Cochain2, b: Cochain2) -> bool:
    """Entry-by-entry equality of two brackets (ignores names and params)."""
    if a.dim != b.dim:
        return False
    for key in set(a.entries) | set(b.entries):
        if a.bracket(*key) != b.bracket(*key):
            return False
    return True


Triple = tuple[int, int, int]


def _add_multiple(total: list[Scalar], coeff: Scalar, column: Column) -> None:
    """total += coeff * column, in place."""
    if coeff.is_zero():
        return
    for n, s in enumerate(column):
        if not s.is_zero():
            total[n] = total[n] + coeff * s


def _jacobi_terms(mu: Cochain2, phi: Cochain2, triple: Triple) -> tuple[Column, ...]:
    """The t^0, t^1, t^2 coefficients of J(mu + t*phi) at one triple.

    Each is a cyclic sum of a(b(e_p, e_q), e_r) with a, b in {mu, phi}, where
    a(x, e_r) = sum_m x_m a(e_m, e_r) is read off the structure constants.
    """
    i, j, k = triple
    totals = [[ZERO] * mu.dim for _ in range(3)]
    for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
        for d_b, b in enumerate((mu, phi)):
            for m, coeff in enumerate(b.bracket(p, q), start=1):
                if not coeff.is_zero():
                    for d_a, a in enumerate((mu, phi)):
                        _add_multiple(totals[d_a + d_b], coeff, a.bracket(m, r))
    return tuple(tuple(total) for total in totals)


@dataclass(frozen=True)
class JacobiReport:
    """Jacobi residuals of mu + t*phi, with failing triples localized.

    ``failures``: (triple, residual) wherever J(mu + t*phi) is nonzero;
    ``terms``: (triple, (J(mu), dphi, J(phi))) wherever one of them is.
    """

    failures: tuple[tuple[Triple, Column], ...] = ()
    terms: tuple[tuple[Triple, tuple[Column, ...]], ...] = ()

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
    [[b_i,b_j],b_k] + [[b_j,b_k],b_i] + [[b_k,b_i],b_j].
    """
    phi = Cochain2(mu.dim, {}) if phi is None else phi
    if phi.dim != mu.dim:
        raise DimensionMismatch("dimensions differ")
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


def cocycle_check(mu: Cochain2, phi: Cochain2) -> bool:
    """True iff phi is a 2-cocycle of mu: the t-linear coefficient of the
    Jacobi residual of mu + t*phi vanishes, so no sign convention is fixed."""
    return not jacobi_check(mu, phi).coefficient(1)


def base_change(mu: Cochain2, g: ScalarMatrix) -> StructureConstants:
    """Transport of the bracket under the basis change g.

    Returns the bracket lam with lam(x, y) = g^{-1}(mu(g x, g y)); requires
    det(g) to be a Laurent unit (raises :class:`NotAUnit` otherwise).
    """
    if g.n != mu.dim:
        raise DimensionMismatch("matrix size does not match the bracket dimension")
    g_inv = g.inverse_unit()
    params = mu.params
    for row in g.rows:
        for entry in row:
            params = params | entry.symbols()
    entries = {}
    for i, j in mu.pairs():
        column = g_inv.apply(mu.bracket_eval(g.column(i - 1), g.column(j - 1)))
        entries[(i, j)] = column
    return StructureConstants(mu.dim, entries, params, mu.name)


def is_ideal(mu: Cochain2, subspace: SubspaceSpec) -> bool:
    """True iff [g, h] lies in h coordinate-wise."""
    outside = [k for k in range(1, mu.dim + 1) if k not in subspace]
    for i in range(1, mu.dim + 1):
        for j in subspace.indices:
            column = mu.bracket(i, j)
            if any(not column[k - 1].is_zero() for k in outside):
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
            if any(not column[k - 1].is_zero() for k in outside):
                raise ValidationError(
                    f"subspace is not closed under the bracket at ({i}, {j})")
            entries[(position[i], position[j])] = tuple(column[k - 1] for k in order)
    return type(mu)(len(order), entries, mu.params, mu.name)


def is_derivation(mu: Cochain2, matrix: ScalarMatrix) -> bool:
    """True iff matrix D satisfies D[x,y] = [Dx,y] + [x,Dy] on all basis pairs."""
    if matrix.n != mu.dim:
        raise DimensionMismatch("matrix size does not match the bracket dimension")
    for i, j in mu.pairs():
        residual = list(matrix.apply(mu.bracket(i, j)))
        for m in range(1, mu.dim + 1):
            row = matrix.rows[m - 1]
            _add_multiple(residual, -row[i - 1], mu.bracket(m, j))
            _add_multiple(residual, -row[j - 1], mu.bracket(i, m))
        if not column_is_zero(residual):
            return False
    return True
