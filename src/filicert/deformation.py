"""Linear deformations from ideal derivations, and certificate verification.

Given a bracket mu, a codimension-1 ideal h with a diagonal (hence
semisimple) derivation D, and a complement vector X, the cochain

    mu_D(X, z) = D(z)  for z in h,      mu_D = 0 on h x h

is a 2-cocycle of mu and itself a Lie bracket, so mu_t = mu + t*mu_D is a
linear deformation.  Seven ordered checks of (mu, h, X, D), each of the
``ideal`` or the ``derivation`` stage, serve :func:`go_cocycle`, which raises
the first failing one's reason, and :func:`check_deformation`, which fails
its stage; both build mu_D with one builder.  A degeneration certificate for
that deformation is a matrix family g_t with

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

The residuals are computed on int coefficients.  With L and M the lcms of
the coefficient denominators of g and of the family (which holds those of
mu and of phi = mu_D, so also those of mu_1), the kernel evaluates (*) for
L*g, M*mu_1 and the family times M*L.  Every residual is then exactly
M*L^2 times the true one, so zero-ness is unchanged, and only the nonzero
ones are divided back.  The cell solver reads its offsets (M*L^2 times the
true ones) and its slopes (M*L times) off the same scaled objects, so it
solves for L times the cell and divides by L once.

The spectrum stage compares the coefficient tuple of the characteristic
polynomial of g's block on the ideal with that of prod_i (x - t^(d_i)).

The stages that depend only on (mu, h, X, D) run in :func:`check_deformation`,
the ones of a certificate in :func:`run_certificate_checks`, so ``verify`` and
``report`` check each distinct deformation once per command, for all of its
certificates; nothing is kept across commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (DimensionMismatch, InvalidSpec, NegativeExponent,
                     NotInvariant)
from .lie import (Cochain2, StructureConstants, SubspaceSpec, column_is_zero,
                  entries_equal, is_derivation, is_ideal, jacobi_check,
                  restrict)
from .linalg import Column, ScalarMatrix
from .scalar import ONE, T, ZERO, Scalar

STAGES = ("jacobi", "ideal", "derivation", "cocycle", "bracket",
          "eq1", "unit-det", "limit", "spectrum")


@dataclass(frozen=True)
class DeformationSpec:
    """The data (mu, h, X, D) defining the cocycle mu_D."""

    base: StructureConstants
    ideal: SubspaceSpec
    outside_index: int
    derivation: ScalarMatrix


# The checks (stage, reason, holds) of a spec s, in order: each may rely on
# the ones before it.  mu_D can be built once the complement and size checks pass.
_COMPLEMENT_CHECKS = (
    ("ideal", "the complement vector lies inside the ideal",
     lambda s: s.outside_index not in s.ideal),
    ("ideal", "complement index out of range", lambda s: 1 <= s.outside_index <= s.base.dim))
_SIZE_CHECK = ("derivation", "derivation size does not match the ideal",
               lambda s: s.derivation.n == len(s.ideal))
_SPEC_CHECKS = (
    *_COMPLEMENT_CHECKS,
    ("ideal", "the ideal must have codimension 1", lambda s: len(s.ideal) == s.base.dim - 1),
    ("ideal", "the chosen subspace is not an ideal", lambda s: is_ideal(s.base, s.ideal)),
    _SIZE_CHECK,
    ("derivation", "derivation is not diagonal (semisimplicity witness)",
     lambda s: s.derivation.is_diagonal()),
    ("derivation", "the matrix is not a derivation of the ideal",
     lambda s: is_derivation(restrict(s.base, s.ideal), s.derivation)))


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
    dim = spec.base.dim
    order = sorted(spec.ideal.indices)
    x = spec.outside_index
    entries: dict[tuple[int, int], Column] = {}
    params = spec.base.params
    for row in spec.derivation.rows:
        for entry in row:
            params = params | entry.symbols()
    for col_pos, z in enumerate(order):
        image = [Scalar() for _ in range(dim)]
        for row_pos, target in enumerate(order):
            image[target - 1] = spec.derivation.rows[row_pos][col_pos]
        column = tuple(image)
        if x < z:
            entries[(x, z)] = column
        else:
            entries[(z, x)] = tuple(-s for s in column)
    return Cochain2(dim, entries, params, f"{spec.base.name}_D")


def deform(mu: StructureConstants, phi: Cochain2) -> StructureConstants:
    """The linear deformation mu + t*phi (exactly mu again at t = 0)."""
    if mu.dim != phi.dim:
        raise DimensionMismatch("cochain dimension does not match the bracket")
    entries = {}
    for key in set(mu.entries) | set(phi.entries):
        entries[key] = tuple(a + T * b if b._terms else a
                             for a, b in zip(mu.bracket(*key), phi.bracket(*key)))
    return StructureConstants(mu.dim, entries, mu.params | phi.params | {"t"},
                              f"{mu.name}_t" if mu.name else "mu_t")


@dataclass
class Failure:
    """A localized nonzero residual."""

    indices: tuple[int, ...]
    residual: Column | None = None
    note: str = ""


@dataclass
class StageResult:
    ok: bool
    failures: tuple[Failure, ...] = ()
    note: str = ""


@dataclass
class VerificationReport:
    """Per-stage verdicts for one algebra; passes iff every stage passes."""

    algebra: str
    stages: dict[str, StageResult] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(stage.ok for stage in self.stages.values())

    def failing_stages(self) -> list[str]:
        return [name for name, stage in self.stages.items() if not stage.ok]


def verify_degeneration(mu_t: StructureConstants, g: ScalarMatrix, reciprocal: bool = False,
                        *, det: Scalar | None = None) -> VerificationReport:
    """Check the degeneration identity (*) on all basis pairs, symbolically.

    Fills the ``eq1`` and ``unit-det`` stages of the report: every residual
    column mu_1(g e_i, g e_j) - g(mu_t(e_i, e_j)) must vanish identically in
    t (and alpha, when present), and det(g) must be a Laurent unit.  With
    ``reciprocal=True`` the right-hand side uses mu_{1/t}.  A caller that
    already knows det(g) passes it as ``det``; otherwise it is computed.
    """
    if g.n != mu_t.dim:
        raise DimensionMismatch("dimensions of brackets and matrix differ")
    report = VerificationReport(mu_t.name)
    family = mu_t.invert_t() if reciprocal else mu_t
    failures = [Failure(pair, residual) for pair, residual
                in _eq1_residuals(mu_t.at_t_one, family, g) if not column_is_zero(residual)]
    note = "certificate parametrized by 1/t" if reciprocal else ""
    report.stages["eq1"] = StageResult(not failures, tuple(failures), note)
    report.stages["unit-det"] = _unit_det_stage(g, det)
    return report


def _unit_det_stage(g: ScalarMatrix, det: Scalar | None = None) -> StageResult:
    if det is None:
        det = g.det()
    if det.is_unit_monomial():
        return StageResult(True, note=f"det = {det}")
    return StageResult(False, (Failure((), None, f"det = {det}"),),
                       "determinant is not a single term c*t^k")


def _cleared(mu1: StructureConstants, family: StructureConstants, g: ScalarMatrix):
    """(L, M, M*mu_1, M*L*family, L*g) with L and M the lcms of the
    coefficient denominators of g and of the family.  mu_1's coefficients
    are sums of the family's, so all three scaled objects have int
    coefficients."""
    scale_g, scale_mu = g.denominator(), family.denominator()
    return (scale_g, scale_mu, mu1.scaled(scale_mu), family.scaled(scale_mu * scale_g),
            g.map_entries(lambda s: s.scaled(scale_g)))


def _residual_columns(mu1: StructureConstants, family: StructureConstants,
                      g: ScalarMatrix):
    """(pair, mu_1(g e_i, g e_j) - g(family(e_i, e_j))) on all basis pairs."""
    columns = [g.column(k) for k in range(g.n)]
    for i, j in family.pairs():
        lhs = mu1.bracket_eval(columns[i - 1], columns[j - 1])
        rhs = g.apply(family.bracket(i, j))
        yield (i, j), tuple(a - b if b._terms else a for a, b in zip(lhs, rhs))


def _eq1_residuals(mu1: StructureConstants, family: StructureConstants,
                   g: ScalarMatrix):
    """(pair, mu_1(g e_i, g e_j) - g(family(e_i, e_j))) on all basis pairs;
    the family is mu_t, or mu_{1/t} for a reciprocal certificate.

    Computed on the cleared objects of :func:`_cleared`, where each residual
    is M*L^2 times the true one, and divided back.
    """
    scale_g, scale_mu, *cleared = _cleared(mu1, family, g)
    back = Fraction(1, scale_mu * scale_g ** 2)
    for pair, residual in _residual_columns(*cleared):
        yield pair, tuple(s.scaled(back) if s._terms else s for s in residual)


def limit_check(mu_t: StructureConstants, mu: StructureConstants) -> bool:
    """True iff the t -> 0 limit of mu_t is exactly mu.

    Raises :class:`NegativeExponent` when an entry of mu_t has a t-pole.
    """
    if mu_t.dim != mu.dim:
        raise DimensionMismatch("dimensions differ")
    for key, column in mu_t.entries.items():
        for entry in column:
            if entry.has_negative_t_exponent():
                raise NegativeExponent(
                    f"entry {key} of the family has a pole at t = 0: {entry}")
    return entries_equal(mu_t.eval_t(0), mu)


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


def block_spectrum_check(g: ScalarMatrix, ideal: SubspaceSpec,
                         derivation: ScalarMatrix, *,
                         block_poly: tuple[Scalar, ...] | None = None) -> bool:
    """Check that g acts on the ideal block with eigenvalues t^(d_i).

    The ideal's coordinate subspace must be invariant under g (otherwise
    :class:`NotInvariant`); the characteristic polynomial of the restricted
    block is then compared, coefficient by coefficient, against
    prod_i (x - t^(d_i)) with d_i the diagonal entries of the derivation,
    expanded one factor at a time.  A caller that has already checked the
    invariance and computed that polynomial passes its coefficient tuple as
    ``block_poly``.
    """
    if not derivation.is_diagonal():
        raise InvalidSpec("derivation is not diagonal")
    actual = _ideal_block(g, ideal).char_poly() if block_poly is None else block_poly
    expected = (ONE,)
    for k in range(derivation.n):
        value = derivation.rows[k][k].constant_value()
        if value.denominator != 1:
            raise InvalidSpec("derivation eigenvalues must be integers")
        root = Scalar.t_power(int(value))
        # (x - root) * p: the coefficient of x^k becomes p[k-1] - root * p[k]
        expected = tuple(a - root * b for a, b in zip((ZERO, *expected), (*expected, ZERO)))
    return actual == expected


@dataclass(frozen=True)
class CheckedDeformation(DeformationSpec):
    """A specification with its stages that need no certificate, and phi = mu_D
    and mu_t they build (None without a valid X and a D of the ideal's size)."""

    reciprocal: bool = False
    stages: dict[str, StageResult] = field(default_factory=dict)
    phi: Cochain2 | None = None
    mu_t: StructureConstants | None = None


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
    if unbuilt := _first_failure(spec, (*_COMPLEMENT_CHECKS, _SIZE_CHECK)):
        expansion = jacobi_check(mu)
        for name in ("cocycle", "bracket", "eq1", "limit"):
            stages[name] = StageResult(False, note=f"skipped: {unbuilt[0]} stage failed")
    else:
        phi = _build_cocycle(spec)
        mu_t = deform(mu, phi)
        expansion = jacobi_check(mu, phi)
        stages["cocycle"] = StageResult(not expansion.coefficient(1))
        stages["bracket"] = StageResult(not expansion.coefficient(2))
        stages["limit"] = StageResult(limit_check(mu_t, mu))
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
    eq1, unit-det and spectrum, in the order of STAGES.  A g that does not
    preserve the ideal, or a non-integral eigenvalue of D, fails spectrum; a
    D that is not diagonal, which fails the derivation stage, skips it.

    One Berkowitz run serves both ``unit-det`` and ``spectrum``.  When g maps
    the codimension-1 ideal into itself, g is block triangular with the
    diagonal blocks B (on the ideal) and g_xx (x the complement index), so
    det g = g_xx * det B = g_xx * (-1)^(n-1) * chi_B(0), read off the block
    characteristic polynomial chi_B that spectrum compares.  Only other g,
    or a spec without a valid complement, have their full determinant computed.
    """
    report = VerificationReport(name, dict(deformation.stages))
    ideal, x = deformation.ideal, deformation.outside_index
    try:
        block_poly = _ideal_block(g, ideal).char_poly()
    except NotInvariant:
        block_poly = None

    if deformation.mu_t is None:
        report.stages["unit-det"] = _unit_det_stage(g)
    else:
        det = None
        if block_poly is not None and len(ideal) == g.n - 1:
            det = g.rows[x - 1][x - 1] * block_poly[0]
            if g.n % 2 == 0:
                det = -det
        report.stages.update(verify_degeneration(deformation.mu_t, g, deformation.reciprocal,
                                                 det=det).stages)

    spectrum = StageResult(False, note="skipped: derivation stage failed")
    if deformation.derivation.is_diagonal():
        try:
            spectrum = StageResult(block_spectrum_check(g, ideal, deformation.derivation,
                                                        block_poly=block_poly))
        except (NotInvariant, InvalidSpec) as exc:
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
    i == j == col.  The unique common solution is returned,
    found by exact division.  Raises :class:`InvalidSpec` if the equations
    are inconsistent or leave the cell unconstrained, i.e. if a single-cell
    correction cannot exist.
    """
    mu_t = deform(mu, _build_cocycle(DeformationSpec(mu, ideal, outside_index, derivation)))
    family = mu_t.invert_t() if reciprocal else mu_t
    row, col = cell
    if not (1 <= row <= g.n and 1 <= col <= g.n):
        raise InvalidSpec(f"cell {cell} is outside the {g.n}x{g.n} certificate")
    rows = [list(r) for r in g.rows]
    rows[row - 1][col - 1] = ZERO
    # on the cleared objects, offsets are M*L^2 and slopes M*L times the true ones
    scale_g, _, mu1, family, g0 = _cleared(mu_t.at_t_one, family,
                                           ScalarMatrix(tuple(map(tuple, rows))))
    e_row = tuple(ONE if k == row - 1 else ZERO for k in range(g.n))
    # mu_1(e_row, g_0 e_m) for every basis index m other than col
    cross = {m: mu1.bracket_eval(e_row, g0.column(m - 1))
             for m in range(1, g.n + 1) if m != col}
    solution = None
    for (i, j), offsets in _residual_columns(mu1, family, g0):
        if i == col:
            slopes = list(cross[j])
        elif j == col:
            slopes = [-s for s in cross[i]]
        else:
            slopes = [ZERO] * g.n
        slopes[row - 1] -= family.bracket(i, j)[col - 1]
        for k, (offset, slope) in enumerate(zip(offsets, slopes), start=1):
            key = (i, j, k)
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
