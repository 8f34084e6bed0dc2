"""Batch driver: verify the catalog, run the invariant suite, emit reports.

One driver serves every command.  `main` parses the arguments and rejects
bad usage; `_run` loads the catalog once, resolves the names and reads each
table once, in the chosen errata variant, into the file and its bracket.  It
hands them to the sections that `SECTIONS` gives the command: the
certificate section (`verify_algebra` over the names, each distinct
deformation checked once) and the invariant section (`invariant_records` per
name), each rendered in the chosen format.  A command that prints both
(`report`) heads each with a ``==`` line in text format.  `counterexample`
has its own producer, `counterexample_lines`.

Exit codes are a function of report content only: 0 when everything asserted
holds, 1 on any verification failure, 2 on input or usage errors.  Output is
deterministic; repeated runs on the same catalog are byte-identical.

The machine-readable format is one record per line,

    algebra=<name> stage=<stage> verdict=<pass|fail> detail=<...>

with the detail field last so the records stay grep- and diff-friendly.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from pathlib import Path

from ._record import Record
from .dataio import (AlgebraFile, DeformationBlock, MAX_DIGITS, VERIFIED_NAMES,
                     apply_errata, certificate_matrix, compact, load_corpus,
                     structure_constants)
from .deformation import (DeformationSpec, VerificationReport, check_deformation,
                          counterexample_spec, deform, go_cocycle,
                          run_certificate_checks)
from .errors import FilicertError, InvalidSpec
from .invariants import (RationalAlgebra, center_dim, derivation_algebra,
                         derived_series, filiform_profile,
                         is_characteristically_nilpotent, lower_central_series)
from .lie import StructureConstants, SubspaceSpec, column_is_zero
from .linalg import ScalarMatrix

DEFAULT_ALPHA_SAMPLES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                         Fraction(1, 3))
DEFAULT_T_SAMPLES = (Fraction(1), Fraction(2), Fraction(-1))

SAMPLING_NOTE = ("note: invariants are evaluated at the listed rational samples only; "
                 "ranks can drop at unsampled special parameter values")

# The sections a command prints: (certificates, invariants).
SECTIONS = {"verify": (True, False), "invariants": (False, True), "report": (True, True)}


class UsageError(FilicertError):
    """Bad command-line input (exit code 2)."""


def _fraction(text: str) -> Fraction:
    """A rational in any form `Fraction` reads, with a numerator and a
    denominator of at most MAX_DIGITS digits, like the catalog literals.  An
    exponent is what can make a number far longer than its text, so it is
    bounded before the number is built."""
    _, e, exponent = text.lower().rpartition("e")
    try:
        value = Fraction(text) if not e or abs(int(exponent)) <= MAX_DIGITS else None
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc
    if value is None or max(abs(value.numerator), value.denominator) >= 10 ** MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"number with more than {MAX_DIGITS} digits: {text!r}")
    return value


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error in one line, like every other input error.

    argparse takes an argument that starts with '-' for an option unless it
    is a plain negative integer or decimal, so `--alpha -1/3` would lack its
    value.  No option here starts with '-' and a digit, so an argument that
    does (after an optional '.') is read as a value: -1/3, -.5, -2e-3.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _resolve_names(corpus: dict[str, AlgebraFile], requested: list[str],
                   need_certificate: bool) -> tuple[str, ...]:
    names = tuple(sorted(requested)) if requested else VERIFIED_NAMES
    for name in names:
        if name not in corpus:
            raise UsageError(f"unknown algebra {name!r}")
        alg = corpus[name]
        if alg.brackets is None:
            raise UsageError(f"{name} is inert metadata (no bracket block)")
        if alg.deformation is None:
            raise UsageError(f"{name} has no deformation block")
        if need_certificate and alg.certificate is None:
            raise UsageError(f"{name} has no certificate block")
    return names


def _joined(values) -> str:
    """Indices or a dimension profile, comma-separated: 8,7,5,1,0."""
    return ",".join(str(value) for value in values)


def _deformation(block: DeformationBlock) -> tuple[SubspaceSpec, int, ScalarMatrix]:
    """A [deformation] block as the ideal, the outside index and D."""
    return SubspaceSpec(block.ideal), block.outside, ScalarMatrix.diagonal(block.diagonal)


def verify_algebra(alg: AlgebraFile, mu: StructureConstants, checked: dict) -> VerificationReport:
    """Run the full pipeline for one catalog entry and its bracket `mu`.  Its
    deformation is checked only if `checked`, keyed by content, does not
    hold it yet."""
    block, reciprocal = alg.deformation, alg.certificate_parameter == "1/t"
    key = (mu.dim, frozenset(mu.entries.items()), mu.params, block, reciprocal)
    if key not in checked:
        checked[key] = check_deformation(mu, *_deformation(block), reciprocal)
    return run_certificate_checks(alg.name, checked[key], certificate_matrix(alg))


def _failure_details(failure) -> list[tuple]:
    """(indices, component, text) per nonzero residual component, or the note."""
    if failure.residual is None:
        return [(failure.indices, None, failure.note)]
    return [(failure.indices, k, str(value))
            for k, value in enumerate(failure.residual, start=1) if not value.is_zero()]


def render_verify_text(reports: list[VerificationReport]) -> list[str]:
    lines = []
    for report in reports:
        if report.passed:
            lines.append(f"{report.algebra}: PASS")
            continue
        lines.append(f"{report.algebra}: FAIL [{', '.join(report.failing_stages())}]")
        for stage_name, stage in report.stages.items():
            if stage.ok:
                continue
            for failure in stage.failures:
                for indices, component, text in _failure_details(failure):
                    where = f"{indices}" + (f" component {component}" if component else "")
                    lines.append(f"  {stage_name}: {where}: {text}")
            if stage.note and not stage.failures:
                lines.append(f"  {stage_name}: {stage.note}")
    return lines


def render_verify_machine(reports: list[VerificationReport]) -> list[str]:
    lines = []
    for report in reports:
        for stage_name, stage in report.stages.items():
            if stage.ok or not stage.failures:
                detail = compact(stage.note) if stage.note else "-"
                lines.append(f"algebra={report.algebra} stage={stage_name} "
                             f"verdict={'pass' if stage.ok else 'fail'} detail={detail}")
            else:
                for failure in stage.failures:
                    for indices, component, text in _failure_details(failure):
                        loc = f"indices={_joined(indices)}"
                        if component is not None:
                            loc += f";component={component}"
                        lines.append(f"algebra={report.algebra} stage={stage_name} "
                                     f"verdict=fail detail={loc};residual={compact(text)}")
    return lines


# -- invariants --------------------------------------------------------------


class InvariantRecord(Record):
    def __init__(self, algebra: str, stage: str, label: str, ok: bool, detail: str):
        self.algebra, self.stage, self.ok, self.detail = algebra, stage, ok, detail
        self.label = label  # the sample coordinates, e.g. "alpha=2" or "t=1;alpha=2"


def invariant_records(alg: AlgebraFile, mu: StructureConstants,
                      alpha_samples: tuple[Fraction, ...],
                      t_samples: tuple[Fraction, ...]) -> list[InvariantRecord]:
    """The invariant verdicts of one entry and its bracket `mu`: five per
    alpha sample (alpha only if the entry declares it), and two more for
    each t sample of the deformed family mu_t."""
    mu_t = deform(mu, go_cocycle(DeformationSpec(mu, *_deformation(alg.deformation))))
    rows = []  # (stage, label, ok, detail)
    for alpha in alpha_samples if "alpha" in alg.params else (None,):
        base_label = "alpha=-" if alpha is None else f"alpha={alpha}"
        algebra = RationalAlgebra.from_structure(mu, alpha=alpha)
        lcs, ds = lower_central_series(algebra), derived_series(algebra)
        center = center_dim(algebra)
        der_dim, _ = derivation_algebra(algebra)
        char_nilp = is_characteristically_nilpotent(algebra)
        rows += [("filiform", base_label, lcs == filiform_profile(algebra.dim),
                  f"lcs=({_joined(lcs)})"),
                 ("derived", base_label, ds[-1] == 0, f"derived=({_joined(ds)})"),
                 ("center", base_label, center == 1, f"dim={center}"),
                 ("der-dim", base_label, True, f"dim={der_dim}"),
                 ("char-nilpotent", base_label, char_nilp,
                  f"value={'yes' if char_nilp else 'no'}")]
        for t in t_samples:
            label = f"t={t};{base_label}"
            deformed = RationalAlgebra.from_structure(mu_t, t=t, alpha=alpha)
            lcs_t, ds_t = lower_central_series(deformed), derived_series(deformed)
            rows += [("solvable", label, ds_t[-1] == 0, f"derived=({_joined(ds_t)})"),
                     ("non-nilpotent", label, lcs_t[-1] != 0, f"lcs=({_joined(lcs_t)})")]
    return [InvariantRecord(alg.name, *row) for row in rows]


def render_invariants_text(name: str, records: list[InvariantRecord]) -> list[str]:
    ok = all(r.ok for r in records)
    lines = [f"{name}: {'PASS' if ok else 'FAIL'}"]
    by_label: dict[str, list[InvariantRecord]] = {}
    for record in records:
        by_label.setdefault(record.label, []).append(record)
    for label, group in by_label.items():
        rendered = "; ".join(
            f"{r.stage} {'yes' if r.ok else 'NO'} [{r.detail}]" if r.stage != "der-dim"
            else f"{r.stage} {r.detail}"
            for r in group)
        lines.append(f"  {label}: {rendered}")
    lines.append(f"  {SAMPLING_NOTE}")
    return lines


def render_invariants_machine(records: list[InvariantRecord]) -> list[str]:
    return [f"algebra={r.algebra} stage={r.stage} "
            f"verdict={'pass' if r.ok else 'fail'} detail={r.label};{compact(r.detail)}"
            for r in records]


# -- counterexample ----------------------------------------------------------


def counterexample_lines(mu: StructureConstants,
                         t_samples: tuple[Fraction, ...]) -> tuple[list[str], bool]:
    """The lines on mu17's bracket `mu`, and whether its deformation is valid."""
    spec = counterexample_spec(mu)
    checked = check_deformation(mu, spec.ideal, spec.outside_index, spec.derivation)
    for stage in ("ideal", "derivation"):
        if not checked.stages[stage].ok:
            raise InvalidSpec(checked.stages[stage].note)
    verdicts = {label: checked.stages[stage].ok for label, stage in (
        ("cocycle", "cocycle"), ("bracket", "bracket"), ("jacobi of the family", "jacobi"))}
    valid = all(verdicts.values())
    weight_zero = column_is_zero(checked.phi.bracket(1, 2))

    diagonal = ", ".join(str(row[k]) for k, row in enumerate(spec.derivation.rows))
    lines = [f"counterexample: mu17 with derivation diag({diagonal}) on the ideal "
             f"<Y{min(spec.ideal.indices)}..Y{max(spec.ideal.indices)}>",
             f"deformation valid: {'yes' if valid else 'no'}; "
             "degeneration certificate: none shipped; non-existence: asserted, unverified"]
    lines.extend(f"  {label}: {'pass' if ok else 'fail'}" for label, ok in verdicts.items())
    lines.append(f"  mu_D(Y1, Y2) = 0: {'yes' if weight_zero else 'no'}")
    for t in t_samples:
        algebra = RationalAlgebra.from_structure(checked.mu_t, t=t)
        lcs, ds = lower_central_series(algebra), derived_series(algebra)
        lines.append(f"  family at t={t}: lcs=({_joined(lcs)}) derived=({_joined(ds)}) "
                     f"solvable={'yes' if ds[-1] == 0 else 'no'} "
                     f"nilpotent={'yes' if lcs[-1] == 0 else 'no'}")
    base_lcs = lower_central_series(RationalAlgebra.from_structure(mu))
    lines.append(f"  base algebra: lcs=({_joined(base_lcs)}) "
                 f"filiform={'yes' if base_lcs == filiform_profile(mu.dim) else 'no'}")
    return lines, valid


# -- driver ------------------------------------------------------------------


def _run(args: argparse.Namespace) -> int:
    """Load the catalog once, build and render what the command prints, write
    it to stdout or to --output; the exit code."""
    corpus = load_corpus(args.data)

    def read(name: str) -> tuple[AlgebraFile, StructureConstants]:
        """A table in the chosen errata variant, and its bracket."""
        alg = apply_errata(corpus[name]) if args.errata == "corrected" else corpus[name]
        return alg, structure_constants(alg)

    t_samples = tuple(args.t or DEFAULT_T_SAMPLES)
    if args.command == "counterexample":
        if "mu17" not in corpus:
            raise UsageError("unknown algebra 'mu17'")
        lines, ok = counterexample_lines(read("mu17")[1], t_samples)
    else:
        certificates, invariants = SECTIONS[args.command]
        names = _resolve_names(corpus, args.names, need_certificate=certificates)
        tables = [read(name) for name in names]
        machine = args.report_format == "machine"
        sections, ok = [], True
        if certificates:
            checked: dict = {}
            reports = [verify_algebra(alg, mu, checked) for alg, mu in tables]
            ok = all(r.passed for r in reports)
            sections.append((render_verify_machine if machine else render_verify_text)(reports))
        if invariants:
            alpha_samples = tuple(args.alpha or DEFAULT_ALPHA_SAMPLES)
            groups = [(alg.name, invariant_records(alg, mu, alpha_samples, t_samples))
                      for alg, mu in tables]
            records = [r for _, group in groups for r in group]
            ok = ok and all(r.ok for r in records)
            sections.append(render_invariants_machine(records) if machine else
                            [line for name, group in groups
                             for line in render_invariants_text(name, group)])
        if len(sections) == 2 and not machine:
            sections = [["== degeneration certificates ==", *sections[0], ""],
                        ["== invariants ==", *sections[1]]]
        lines = [line for section in sections for line in section]
    text = "\n".join(lines) + "\n"
    if args.output is not None:
        args.output.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", type=Path, default=None, metavar="DIR",
                        help="catalog directory (default: bundled data)")
    common.add_argument("--errata", choices=("verbatim", "corrected"),
                        default="verbatim",
                        help="use tables as printed, or with reviewed corrections")
    common.add_argument("--output", type=Path, default=None, metavar="PATH",
                        help="write the report to a file instead of stdout")

    parser = _ArgumentParser(
        prog="filicert",
        description="Exact verification of filiform degeneration certificates.")
    # what a command without the option reads
    parser.set_defaults(names=(), all=False, t=None, alpha=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="verify degeneration certificates")
    p_verify.add_argument("names", nargs="*", help="algebra names (default: all ten)")
    p_verify.add_argument("--all", action="store_true", help="verify the whole catalog")
    p_verify.add_argument("--format", dest="report_format",
                          choices=("text", "machine"), default="text")

    p_inv = sub.add_parser("invariants", parents=[common],
                           help="series, center, derivations, characteristic nilpotency")
    p_inv.add_argument("names", nargs="*", help="algebra names (default: all ten)")
    p_inv.add_argument("--t", type=_fraction, action="append", default=None,
                       metavar="r", help="rational t sample (repeatable)")
    p_inv.add_argument("--alpha", type=_fraction, action="append", default=None,
                       metavar="r", help="rational alpha sample (repeatable)")
    p_inv.add_argument("--format", dest="report_format",
                       choices=("text", "machine"), default="text")

    sub.add_parser("counterexample", parents=[common],
                   help="the valid deformation with no bundled certificate")

    p_rep = sub.add_parser("report", parents=[common],
                           help="combined verification and invariant report")
    p_rep.add_argument("names", nargs="*", help="algebra names (default: all ten)")
    p_rep.add_argument("--all", action="store_true")
    p_rep.add_argument("--format", dest="report_format",
                       choices=("text", "machine"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.all and args.names:
            raise UsageError("--all selects the whole catalog; give either --all or names")
        if any(t == 0 for t in args.t or ()):
            raise UsageError("t samples must exclude 0")
        return _run(args)
    except (FilicertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
