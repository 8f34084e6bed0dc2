"""Linear deformations from ideal derivations, and certificate verification.

Given a bracket mu, a codimension-1 ideal h with a diagonal (hence
semisimple) derivation D, and a complement vector X, the cochain

    mu_D(X, z) = D(z)  for z in h,      mu_D = 0 on h x h

is a 2-cocycle of mu and itself a Lie bracket, so mu_t = mu + t*mu_D is a
linear deformation.  Eight ordered checks of (mu, h, X, D), each of the
``ideal`` or the ``derivation`` stage, serve :func:`go_cocycle`, which raises
the first failing one's reason, and :func:`check_deformation`, which fails
its stage; both build mu_D with one builder.

A diagonal derivation D = diag(d_i) of h is a Z-grading of h, and the last
check reads it as one, in one pass over mu's nonzero structure constants
(so no stage calls :func:`filicert.lie.is_derivation`).  mu_D is read off
D's nonzero entries, and mu + t*mu_D adds t*mu_D to mu by shifting
t-exponents on the pairs that mu_D reaches, with no Scalar products; mu_1
rewrites only those pairs too, since a scalar with no t term is its own
value at t = 1.  So the work per deformation is linear in the nonzero
structure constants and in D's diagonal.

A degeneration certificate for that deformation is a matrix family g_t with

    mu_1(g_t(x), g_t(y)) = g_t(mu_t(x, y))        (*)

for all x, y, where mu_1 is the deformation at t = 1.  The verifier expands
(*) on basis pairs, which is complete by bilinearity, and demands that every
residual be the identically-zero Scalar; there is no epsilon anywhere.

Some certificate families are parametrized reciprocally: the bundled family
for one algebra satisfies (*) with mu_{1/t} in place of mu_t, which realizes
the same degeneration because t -> 1/t permutes the punctured line (the
family g_{1/t} then satisfies (*) literally).  Such certificates carry the
marker ``parameter = 1/t`` in their data files and are verified against the
reciprocal deformation.

The residuals are computed on int coefficients.  With L the lcm of the
coefficient denominators of g and M that of mu_t (which holds those of mu
and of phi = mu_D, so also those of mu_1 and of mu_{1/t}), the kernel
evaluates (*) for L*g, M*mu_1 and the family scaled by M only, and
multiplies its right-hand side g(family(e_i, e_j)) by L inside the kernel.
Every residual is then exactly M*L^2 times the true one, so zero-ness is
unchanged.  M*mu_1 and M*family are built once per deformation and kept on
its :class:`CheckedDeformation`, in one scaling pass: mu_t is scaled by M,
and M*mu_1 and M*mu_{1/t} are read off the scaled copy; a certificate scales
only g, once.  The residuals are sparse: a component gets a term map only
when a product reaches it, is made a Scalar once, and only the nonzero
components of the pairs that have one are yielded and divided back.  The
cell solver reads its offsets (M*L^2 times the true ones) off one such
pass, and its slopes (M*L times) off one row of M*mu_1's table, so it
solves for L times the cell and divides by L once.

The limit stage checks that mu_t has no t-pole and that, on every pair
either stores, the t^0 terms of each entry of mu_t are the terms of mu's
entry; a D entry with a pole of order 2 or more puts a t-pole into mu_t,
which fails the stage with :func:`limit_check`'s message.  ``unit-det`` and
``spectrum`` read g's block B on the ideal as its factors: a root b_kk per
singleton component of its pattern, the characteristic polynomial of each
cyclic one (:meth:`ScalarMatrix.char_factors`).  det g = g_xx * det B, and
each root cancels one t^(d_i) of the multiset that D gives, kept on its
:class:`CheckedDeformation`; only a cyclic component expands a product.

mu_D, read off D once the checks that building it needs pass, mu_t = mu +
t*mu_D and the cochains derived from it (specializations, scaled copies) are
in range and declare their symbols by construction, so they are not
validated again; every input from outside is.

The stages that depend only on (mu, h, X, D) run in :func:`check_deformation`,
the ones of a certificate in :func:`run_certificate_checks`, so ``verify`` and
``report`` check each distinct deformation once per command, for all of its
certificates; nothing is kept across commands.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property

from ._record import FrozenRecord, Record
from .errors import (DimensionMismatch, InvalidSpec, NegativeExponent,
                     NotInvariant)
from .lie import Cochain2, StructureConstants, SubspaceSpec, is_ideal, jacobi_check
from .linalg import Column, ScalarMatrix, expand, factors_det
from .scalar import ONE, ZERO, Scalar, Terms, add_product, from_terms

STAGES = ("jacobi", "ideal", "derivation", "cocycle", "bracket",
          "eq1", "unit-det", "limit", "spectrum")


class DeformationSpec(FrozenRecord):
    """The data (mu, h, X, D) defining the cocycle mu_D."""

    def __init__(self, base: StructureConstants, ideal: SubspaceSpec, outside_index: int,
                 derivation: ScalarMatrix):
        self.__dict__.update(base=base, ideal=ideal, outside_index=outside_index,
                             derivation=derivation)


def _grades(spec: DeformationSpec) -> bool:
    """True iff D = diag(d_i) grades the ideal h: d_i + d_j = d_k for every
    nonzero c_ij^k with i and j in h.  That is the derivation identity, since
    D[b_i,b_j] - [Db_i,b_j] - [b_i,Db_j] = sum_k (d_k - d_i - d_j) c_ij^k b_k
    and Q[alpha][t, 1/t] is a domain.  The checks before this one make D
    diagonal of h's size and h an ideal, so every such k lies in h."""
    rows = spec.derivation.rows
    weight = {index: rows[pos][pos] for pos, index in enumerate(sorted(spec.ideal.indices))}
    for (i, j), column in spec.base.entries.items():
        if i in weight and j in weight:
            total = (weight[i] + weight[j])._terms
            if any(s._terms and weight[k]._terms != total
                   for k, s in enumerate(column, start=1)):
                return False
    return True


# The checks (stage, reason, holds) of a spec s, in order: each may rely on
# the ones before it.  mu_D can be built once the _BUILD_CHECKS pass.
_COMPLEMENT_CHECKS = (
    ("ideal", "the complement vector lies inside the ideal",
     lambda s: s.outside_index not in s.ideal),
    ("ideal", "complement index out of range", lambda s: 1 <= s.outside_index <= s.base.dim),
    ("ideal", "ideal index out of range", lambda s: max(s.ideal.indices, default=0) <= s.base.dim))
_SIZE_CHECK = ("derivation", "derivation size does not match the ideal",
               lambda s: s.derivation.n == len(s.ideal))
_BUILD_CHECKS = (*_COMPLEMENT_CHECKS, _SIZE_CHECK)
_SPEC_CHECKS = (
    *_COMPLEMENT_CHECKS,
    ("ideal", "the ideal must have codimension 1", lambda s: len(s.ideal) == s.base.dim - 1),
    ("ideal", "the chosen subspace is not an ideal", lambda s: is_ideal(s.base, s.ideal)),
    _SIZE_CHECK,
    ("derivation", "derivation is not diagonal (semisimplicity witness)",
     lambda s: s.derivation.is_diagonal()),
    ("derivation", "the matrix is not a derivation of the ideal", _grades))


def _first_failure(spec: DeformationSpec, checks=_SPEC_CHECKS) -> tuple[str, str] | None:
    """(stage, reason) of the first of `checks` that the spec fails, if any."""
    return next(((stage, reason) for stage, reason, holds in checks if not holds(spec)), None)


def go_cocycle(spec: DeformationSpec) -> Cochain2:
    """The cochain mu_D of a specification that passes every check; otherwise
    :class:`InvalidSpec` with the reason of the first failing one."""
    if failure := _first_failure(spec):
        raise InvalidSpec(failure[1])
    return _build_cocycle(spec)


def _build_cocycle(spec: DeformationSpec) -> Cochain2:
    """mu_D of a spec that passes the _BUILD_CHECKS: on (X, z), z in the
    ideal, the column D z, read off D's nonzero entries; zero elsewhere.  It
    is in range and declares the symbols of those entries, so it is built
    like a derived cochain, not validated again."""
    dim, x = spec.base.dim, spec.outside_index
    order = sorted(spec.ideal.indices)
    entries: dict[tuple[int, int], Column] = {}
    used: set[str] = set()
    for z, nonzero in zip(order, spec.derivation.nonzero_columns):
        if not nonzero:
            continue
        image = [ZERO] * dim
        for row_pos, entry in nonzero:
            image[order[row_pos] - 1] = entry
            used.update(entry.symbols())
        if x < z:
            entries[(x, z)] = tuple(image)
        else:
            entries[(z, x)] = tuple(-s for s in image)
    return Cochain2._derived(dim, entries, spec.base.params | used, f"{spec.base.name}_D")


def _plus_t_times(a: Scalar, b: Scalar) -> Scalar:
    """a + t*b, with t*b formed by shifting the t-exponents of b's terms."""
    terms = dict(a._terms)
    for (e_t, e_alpha), coeff in b._terms.items():
        key = (e_t + 1, e_alpha)
        terms[key] = terms.get(key, 0) + coeff
    return from_terms(terms)


def deform(mu: StructureConstants, phi: Cochain2) -> StructureConstants:
    """The linear deformation mu + t*phi (exactly mu again at t = 0): mu's
    columns, with t*phi added on the pairs that phi reaches."""
    if mu.dim != phi.dim:
        raise DimensionMismatch("cochain dimension does not match the bracket")
    entries = dict(mu.entries)
    for key, column in phi.entries.items():
        base = entries.get(key) or (ZERO,) * mu.dim
        entries[key] = tuple(_plus_t_times(a, b) if b._terms else a
                             for a, b in zip(base, column))
    return StructureConstants._derived(mu.dim, entries, mu.params | phi.params | {"t"},
                                       f"{mu.name}_t" if mu.name else "mu_t")


class Failure(Record):
    """A localized nonzero residual."""

    def __init__(self, indices: tuple[int, ...], residual: Column | None = None, note: str = ""):
        self.indices, self.residual, self.note = indices, residual, note


class StageResult(Record):
    def __init__(self, ok: bool, failures: tuple[Failure, ...] = (), note: str = ""):
        self.ok, self.failures, self.note = ok, failures, note


class VerificationReport(Record):
    """Per-stage verdicts for one algebra; passes iff every stage passes."""

    def __init__(self, algebra: str, stages: dict[str, StageResult] | None = None):
        self.algebra, self.stages = algebra, {} if stages is None else stages

    @property
    def passed(self) -> bool:
        return all(stage.ok for stage in self.stages.values())

    def failing_stages(self) -> list[str]:
        return [name for name, stage in self.stages.items() if not stage.ok]


def verify_degeneration(mu_t: StructureConstants, g: ScalarMatrix,
                        reciprocal: bool = False) -> VerificationReport:
    """Check the degeneration identity (*) on all basis pairs, symbolically.

    Fills the ``eq1`` and ``unit-det`` stages of the report: every residual
    column mu_1(g e_i, g e_j) - g(mu_t(e_i, e_j)) must vanish identically in
    t (and alpha, when present), and det(g) must be a Laurent unit.  With
    ``reciprocal=True`` the right-hand side uses mu_{1/t}.  The cleared family
    and det(g) are built for this call alone.
    """
    if g.n != mu_t.dim:
        raise DimensionMismatch("dimensions of brackets and matrix differ")
    report = VerificationReport(mu_t.name)
    report.stages["eq1"] = _eq1_stage(_clear_family(mu_t, reciprocal), _cleared_certificate(g),
                                      reciprocal)
    report.stages["unit-det"] = _unit_det_stage(g.det())
    return report


def _eq1_stage(cleared, certificate, reciprocal: bool) -> StageResult:
    failures = [Failure(pair, tuple(residual.get(k, ZERO) for k in range(certificate[1].n)))
                for pair, residual in _eq1_residuals(cleared, certificate)]
    note = "certificate parametrized by 1/t" if reciprocal else ""
    return StageResult(not failures, tuple(failures), note)


def _unit_det_stage(det: Scalar) -> StageResult:
    if det.is_unit_monomial():
        return StageResult(True, note=f"det = {det}")
    return StageResult(False, (Failure((), None, f"det = {det}"),),
                       "determinant is not a single term c*t^k")


def _clear_family(mu_t: StructureConstants, reciprocal: bool):
    """(M, M*mu_1, M*family) with M the lcm of the coefficient denominators of
    mu_t, which is that of mu_{1/t} too, and family = mu_t, or mu_{1/t} for a
    reciprocal certificate.  mu_1's coefficients are sums of mu_t's, so both
    scaled objects have int coefficients; for M = 1 mu_t is not copied."""
    scale = mu_t.denominator()
    scaled = mu_t if scale == 1 else mu_t.scaled(scale)
    return scale, scaled.eval_t(1), scaled.invert_t() if reciprocal else scaled


def _cleared_certificate(g: ScalarMatrix) -> tuple[int, ScalarMatrix]:
    """(L, L*g) with L the lcm of the coefficient denominators of g."""
    scale = g.denominator()
    return scale, g if scale == 1 else g.scaled(scale)


def _nonzero(terms: dict[int, Terms]) -> dict[int, Scalar]:
    """The Scalars of per-component term maps that do not cancel, in
    increasing component."""
    return {k: s for k in sorted(terms) if (s := from_terms(terms[k]))._terms}


def _residual_columns(mu1: StructureConstants, family: StructureConstants,
                      g: ScalarMatrix, factor: int):
    """(pair, {k: residual component}) for each basis pair i < j, in order,
    whose residual mu_1(g e_i, g e_j) - factor * g(family(e_i, e_j)) is not
    zero, with its nonzero components only, 0-based k ascending.  A
    component's term map is opened when the first of the products
    x_a y_b mu_1(e_a, e_b)[k] of x = g e_i and y = g e_j, or
    -factor family(e_i, e_j)[m] g[k, m], reaches it, and made a Scalar once."""
    table, columns = mu1.table, g.nonzero_columns
    minus_factor = Scalar.from_rational(-factor)
    for i, j in family.pairs():
        terms: dict[int, Terms] = {}
        x, y = columns[i - 1], columns[j - 1]
        for a, xa in x:
            for b, yb in y:
                for k, c in table.get((a + 1, b + 1), ()):
                    add_product(terms.setdefault(k, {}), c, xa, yb)
        for m, f in enumerate(family.entries.get((i, j), ())):
            if f._terms:
                for k, gkm in columns[m]:
                    add_product(terms.setdefault(k, {}), minus_factor, f, gkm)
        if residual := _nonzero(terms):
            yield (i, j), residual


def _eq1_residuals(cleared, certificate):
    """(pair, {k: residual component}) of mu_1(g e_i, g e_j) -
    g(family(e_i, e_j)) for the pairs and components where it is not zero,
    as :func:`_residual_columns` yields them, from the cleared family
    (M, M*mu_1, M*family) of :func:`_clear_family` and the cleared
    certificate (L, L*g) of :func:`_cleared_certificate`.

    Computed on M*mu_1, M*family and L*g with factor L, where each residual is
    M*L^2 times the true one; only the components received are divided back.
    """
    scale_mu, mu1, family = cleared
    scale_g, g = certificate
    back = Fraction(1, scale_mu * scale_g ** 2)
    for pair, residual in _residual_columns(mu1, family, g, scale_g):
        yield pair, {k: s.scaled(back) for k, s in residual.items()}


def limit_check(mu_t: StructureConstants, mu: StructureConstants) -> bool:
    """True iff the t -> 0 limit of mu_t is exactly mu: on every pair that
    either stores, the t^0 terms of each entry of mu_t are the terms of mu's.

    Raises :class:`NegativeExponent` when an entry of mu_t has a t-pole.
    """
    if mu_t.dim != mu.dim:
        raise DimensionMismatch("dimensions differ")
    for key, column in mu_t.entries.items():
        for entry in column:
            if entry.has_negative_t_exponent():
                raise NegativeExponent(
                    f"entry {key} of the family has a pole at t = 0: {entry}")
    return all({exps: c for exps, c in s._terms.items() if not exps[0]} == b._terms
               for pair in mu_t.entries.keys() | mu.entries.keys()
               for s, b in zip(mu_t.bracket(*pair), mu.bracket(*pair)))


def _ideal_block(g: ScalarMatrix, ideal: SubspaceSpec) -> ScalarMatrix:
    """The block of g on the ideal's coordinate subspace, which g must map
    into itself (otherwise :class:`NotInvariant`)."""
    inside = [k - 1 for k in sorted(ideal.indices)]
    outside = [k for k in range(g.n) if k + 1 not in ideal]
    for c in inside:
        for r in outside:
            if not g.rows[r][c].is_zero():
                raise NotInvariant(
                    f"entry ({r + 1}, {c + 1}) maps the ideal outside itself")
    return g.submatrix(inside, inside)


def _spectrum_target(derivation: ScalarMatrix) -> Counter:
    """The multiset of the t^(d_i), d_i the diagonal entries of D; raises
    :class:`InvalidSpec` for a derivation that is not diagonal or has an
    eigenvalue that is not an integer."""
    if not derivation.is_diagonal():
        raise InvalidSpec("derivation is not diagonal")
    target = Counter()
    for k, row in enumerate(derivation.rows):
        if not row[k].is_constant() or (value := row[k].constant_value()).denominator != 1:
            raise InvalidSpec("derivation eigenvalues must be integers")
        target[Scalar.t_power(int(value))] += 1
    return target


def _spectrum_holds(roots, polys, target: Counter) -> bool:
    """True iff prod (x - r) * prod p, from :meth:`ScalarMatrix.char_factors`,
    is prod (x - s) over the multiset `target`: each root r cancels one s,
    and the cyclic components' polynomials multiply to the product over the
    s left, expanded only if there is one."""
    left = Counter(target)
    for root in roots:
        if not left[root]:
            return False
        left[root] -= 1
    rest = list(left.elements())
    return expand((), polys) == expand(rest) if polys else not rest


def block_spectrum_check(g: ScalarMatrix, ideal: SubspaceSpec, derivation: ScalarMatrix) -> bool:
    """Check that g acts on the ideal block with eigenvalues t^(d_i).

    The derivation must be diagonal with integer entries d_i (otherwise
    :class:`InvalidSpec`) and the ideal's coordinate subspace invariant under
    g (otherwise :class:`NotInvariant`); the characteristic polynomial of the
    restricted block is then compared with prod_i (x - t^(d_i)) by
    :func:`_spectrum_holds`.
    """
    target = _spectrum_target(derivation)
    return _spectrum_holds(*_ideal_block(g, ideal).char_factors(), target)


class CheckedDeformation(DeformationSpec):
    """A specification with its stages that need no certificate, and phi = mu_D
    and mu_t they build (None without a valid X and a D of the ideal's size)."""

    def __init__(self, base: StructureConstants, ideal: SubspaceSpec, outside_index: int,
                 derivation: ScalarMatrix, reciprocal: bool = False, stages: dict | None = None,
                 phi: Cochain2 | None = None, mu_t: StructureConstants | None = None):
        super().__init__(base, ideal, outside_index, derivation)
        self.__dict__.update(reciprocal=reciprocal, stages={} if stages is None else stages,
                             phi=phi, mu_t=mu_t)

    @cached_property
    def spectrum_target(self) -> Counter:
        """The multiset of the t^(d_i), the roots that spectrum expects of
        every certificate's block; built on first use and kept."""
        return _spectrum_target(self.derivation)

    @cached_property
    def cleared_family(self):
        """(M, M*mu_1, M*family) of :func:`_clear_family` in this deformation's
        direction, which eq1 reads for every certificate; built on first use."""
        return _clear_family(self.mu_t, self.reciprocal)


def check_deformation(mu: StructureConstants, ideal: SubspaceSpec, outside_index: int,
                      derivation: ScalarMatrix, reciprocal: bool = False) -> CheckedDeformation:
    """The stages of (mu, h, X, D) that no certificate enters, run once for
    any number of them: jacobi (of mu, and of mu_t once built), ideal,
    derivation, cocycle, bracket, limit; jacobi, cocycle and bracket are read
    off one Jacobi expansion of mu + t*phi.  Failures are collected, never
    raised: the first failing check fails its stage, noting the reason that
    :func:`go_cocycle` raises (a failing ideal stage skips derivation), and
    without a valid X or a D of the ideal's size the stages that need mu_D,
    eq1 among them, are skipped."""
    spec = DeformationSpec(mu, ideal, outside_index, derivation)
    stage, reason = _first_failure(spec) or (None, "")
    failures = {"ideal": Failure(tuple(ideal.indices), None,
                                 "subspace is not a codimension-1 ideal"),
                "derivation": Failure((), None, "not a derivation of the ideal")}
    stages = {name: StageResult(False, (failure,), reason) if name == stage else StageResult(True)
              for name, failure in failures.items()}
    if stage == "ideal":
        stages["derivation"] = StageResult(False, note="skipped: ideal stage failed")

    phi = mu_t = None
    if unbuilt := _first_failure(spec, _BUILD_CHECKS):
        expansion = jacobi_check(mu)
        for name in ("cocycle", "bracket", "eq1", "limit"):
            stages[name] = StageResult(False, note=f"skipped: {unbuilt[0]} stage failed")
    else:
        phi = _build_cocycle(spec)
        mu_t = deform(mu, phi)
        expansion = jacobi_check(mu, phi)
        stages["cocycle"] = StageResult(not expansion.coefficient(1))
        stages["bracket"] = StageResult(not expansion.coefficient(2))
        try:
            stages["limit"] = StageResult(limit_check(mu_t, mu))
        except NegativeExponent as exc:
            stages["limit"] = StageResult(False, note=str(exc))
    jacobi_failures = [Failure(triple, residual, "bracket of the algebra")
                       for triple, residual in expansion.coefficient(0)]
    jacobi_failures.extend(Failure(triple, residual, "bracket of the deformed family")
                           for triple, residual in expansion.failures if phi is not None)
    stages["jacobi"] = StageResult(not jacobi_failures, tuple(jacobi_failures))
    return CheckedDeformation(mu, ideal, outside_index, derivation, reciprocal, stages,
                              phi, mu_t)


def run_certificate_checks(name: str, deformation: CheckedDeformation,
                           g: ScalarMatrix) -> VerificationReport:
    """The report on certificate g of a checked deformation: its stages and
    eq1, unit-det and spectrum, in the order of STAGES, each computed once:
    eq1 on the deformation's cleared family, spectrum against its target.  A
    g that does not preserve the ideal, or a non-integral eigenvalue of D,
    fails spectrum; a D that is not diagonal, which fails the derivation
    stage, skips it.

    The factors of g's block B on the ideal serve both ``unit-det`` and
    ``spectrum``: when g maps a codimension-1 ideal into itself, row x of g
    (x the one index outside the ideal) is zero but for g_xx, so
    det g = g_xx * det B.  Cancelling roots is exact: R = Q[alpha][t, 1/t] is
    a UFD and x - r is prime in R[x].  Any other g, or an ideal with an index
    past the dimension, which skips spectrum, has det g computed in full.  A
    g whose size is not the algebra's dimension is refused first, with
    :class:`DimensionMismatch`.
    """
    if g.n != deformation.base.dim:
        raise DimensionMismatch("dimensions of brackets and matrix differ")
    report = VerificationReport(name, dict(deformation.stages))
    factors = None
    if in_range := max(deformation.ideal.indices, default=0) <= g.n:
        try:
            factors = _ideal_block(g, deformation.ideal).char_factors()
        except NotInvariant as exc:
            leaves = str(exc)
    outside = [k for k in range(g.n) if k + 1 not in deformation.ideal]
    if factors is None or len(outside) != 1:
        det = g.det()
    else:
        det = g.rows[outside[0]][outside[0]] * factors_det(*factors)
    if deformation.mu_t is not None:
        report.stages["eq1"] = _eq1_stage(deformation.cleared_family, _cleared_certificate(g),
                                          deformation.reciprocal)
    report.stages["unit-det"] = _unit_det_stage(det)

    if not in_range:
        spectrum = StageResult(False, note="skipped: ideal stage failed")
    elif not deformation.derivation.is_diagonal():
        spectrum = StageResult(False, note="skipped: derivation stage failed")
    elif factors is None:
        spectrum = StageResult(False, (Failure((), None, leaves),))
    else:
        try:
            spectrum = StageResult(_spectrum_holds(*factors, deformation.spectrum_target))
        except InvalidSpec as exc:
            spectrum = StageResult(False, (Failure((), None, str(exc)),))
    report.stages["spectrum"] = spectrum

    report.stages = {stage: report.stages[stage] for stage in STAGES if stage in report.stages}
    return report


def solve_certificate_cell(mu: StructureConstants, ideal: SubspaceSpec,
                           outside_index: int, derivation: ScalarMatrix,
                           g: ScalarMatrix, cell: tuple[int, int],
                           reciprocal: bool = False) -> Scalar:
    """Derive one certificate entry from the residual equations.

    Treats the entry x at ``cell`` = (row, col) (1-based) as an unknown and
    every other entry as correct.  Each residual component of (*) is affine
    in x, so one evaluation with x = 0 (the matrix g_0) gives every offset,
    and the slope at the pair (i, j) is exact:

        [i == col] mu_1(e_row, g_0 e_j) + [j == col] mu_1(g_0 e_i, e_row)
            - family(e_i, e_j)[col] e_row

    with family = mu_t (mu_{1/t} if ``reciprocal``); x^2 would need
    i == j == col.  mu_1(e_row, g_0 e_m) = sum_b g_0[b, m] mu_1(e_row, e_b)
    is read off row ``row`` of mu_1's table.  Each pair's components where
    the slope or the offset is nonzero are visited in increasing k, and the
    unique common solution is returned, found by exact division.  Raises
    :class:`InvalidSpec` if the equations are inconsistent or leave the cell
    unconstrained, i.e. if a single-cell correction cannot exist, or if mu_D
    cannot be built (see _BUILD_CHECKS); a cell outside g is refused before
    that, and a g whose size is not mu's dimension first of all, with
    :class:`DimensionMismatch`.
    """
    if g.n != mu.dim:
        raise DimensionMismatch("dimensions of brackets and matrix differ")
    row, col = cell
    if not (1 <= row <= g.n and 1 <= col <= g.n):
        raise InvalidSpec(f"cell {cell} is outside the {g.n}x{g.n} certificate")
    spec = DeformationSpec(mu, ideal, outside_index, derivation)
    if unbuilt := _first_failure(spec, _BUILD_CHECKS):
        raise InvalidSpec(unbuilt[1])
    _, mu1, family = _clear_family(deform(mu, _build_cocycle(spec)), reciprocal)
    rows = [list(r) for r in g.rows]
    rows[row - 1][col - 1] = ZERO
    # on the cleared objects, offsets are M*L^2 and slopes M*L times the true ones
    scale_g, g0 = _cleared_certificate(ScalarMatrix(tuple(map(tuple, rows))))
    table, columns = mu1.table, g0.nonzero_columns
    # mu_1(e_row, g_0 e_m) = sum_b g_0[b, m] mu_1(e_row, e_b), for every m other than col
    cross = {}
    for m in range(1, g.n + 1):
        if m != col:
            terms: dict[int, Terms] = {}
            for b, gbm in columns[m - 1]:
                for k, c in table.get((row, b + 1), ()):
                    add_product(terms.setdefault(k, {}), ONE, gbm, c)
            cross[m] = _nonzero(terms)
    residuals = dict(_residual_columns(mu1, family, g0, scale_g))
    solution = None
    for i, j in family.pairs():
        slopes = (dict(cross[j]) if i == col else
                  {k: -s for k, s in cross[i].items()} if j == col else {})
        if (f := family.bracket(i, j)[col - 1])._terms:
            slopes[row - 1] = slopes.get(row - 1, ZERO) - f.scaled(scale_g)
        offsets = residuals.get((i, j), {})
        for k in sorted(slopes.keys() | offsets.keys()):
            offset, slope = offsets.get(k, ZERO), slopes.get(k, ZERO)
            key = (i, j, k + 1)
            if not slope._terms:
                if offset._terms:
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
    return solution.scaled(Fraction(1, scale_g))


def counterexample_spec(mu: StructureConstants) -> DeformationSpec:
    """The deformation with derivation diag(0, 1, ..., 1) on the standard
    codimension-1 ideal; a valid linear deformation for which no certificate
    is bundled."""
    dim = mu.dim
    ideal = SubspaceSpec(tuple(range(2, dim + 1)))
    diagonal = ScalarMatrix.diagonal([0] + [1] * (dim - 2))
    return DeformationSpec(mu, ideal, 1, diagonal)
