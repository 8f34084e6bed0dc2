"""Batch driver: verify the catalog, run the invariant suite, emit reports.

Exit codes are a function of report content only: 0 when everything asserted
holds, 1 on any verification failure, 2 on input or usage errors.  Output is
deterministic; repeated runs on the same catalog are byte-identical.

The machine-readable format is one record per line,

    algebra=<name> stage=<stage> verdict=<pass|fail> detail=<...>

with the detail field last so the records stay grep- and diff-friendly.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .dataio import (AlgebraFile, MAX_DIGITS, VERIFIED_NAMES, certificate_matrix,
                     compact, load_corpus, structure_constants)
from .deformation import (DeformationSpec, VerificationReport,
                          counterexample_spec, deform, go_cocycle,
                          run_certificate_checks)
from .errors import FilicertError
from .invariants import (RationalAlgebra, center_dim, derivation_algebra,
                         derived_series, filiform_profile,
                         is_characteristically_nilpotent, lower_central_series)
from .lie import SubspaceSpec, column_is_zero, jacobi_check
from .linalg import ScalarMatrix

DEFAULT_ALPHA_SAMPLES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                         Fraction(1, 3))
DEFAULT_T_SAMPLES = (Fraction(1), Fraction(2), Fraction(-1))

SAMPLING_NOTE = ("note: invariants are evaluated at the listed rational samples only; "
                 "ranks can drop at unsampled special parameter values")


@dataclass
class RunConfig:
    names: tuple[str, ...]
    alpha_samples: tuple[Fraction, ...] = DEFAULT_ALPHA_SAMPLES
    t_samples: tuple[Fraction, ...] = DEFAULT_T_SAMPLES
    report_format: str = "text"
    errata_mode: str = "verbatim"
    data_path: Path | None = None
    output: Path | None = None

    def validate(self) -> None:
        if any(t == 0 for t in self.t_samples):
            raise UsageError("t samples must exclude 0")


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
    """Reports a usage error in one line, like every other input error."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _resolve_names(corpus: dict[str, AlgebraFile], requested: list[str],
                   need_certificate: bool) -> tuple[str, ...]:
    names = tuple(sorted(requested)) if requested else VERIFIED_NAMES
    for name in names:
        if name not in corpus:
            raise UsageError(f"unknown algebra {name!r}")
        alg = corpus[name]
        if alg.brackets is None or alg.deformation is None:
            raise UsageError(f"{name} is inert metadata (no bracket block)")
        if need_certificate and alg.certificate is None:
            raise UsageError(f"{name} has no certificate block")
    return names


def verify_algebra(alg: AlgebraFile, corrected: bool) -> VerificationReport:
    """Run the full pipeline for one catalog entry."""
    mu = structure_constants(alg, corrected=corrected)
    g = certificate_matrix(alg, corrected=corrected)
    block = alg.deformation
    return run_certificate_checks(
        alg.name, mu, SubspaceSpec(block.ideal), block.outside,
        ScalarMatrix.diagonal(block.diagonal), g,
        reciprocal=(alg.certificate_parameter == "1/t"))


def _failure_details(failure) -> list[str]:
    details = []
    if failure.residual is not None:
        for k, value in enumerate(failure.residual, start=1):
            if not value.is_zero():
                details.append((failure.indices, k, str(value)))
    else:
        details.append((failure.indices, None, failure.note))
    return details


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
            if stage.ok:
                detail = compact(stage.note) if stage.note else "-"
                lines.append(f"algebra={report.algebra} stage={stage_name} "
                             f"verdict=pass detail={detail}")
            elif not stage.failures:
                detail = compact(stage.note) if stage.note else "-"
                lines.append(f"algebra={report.algebra} stage={stage_name} "
                             f"verdict=fail detail={detail}")
            else:
                for failure in stage.failures:
                    for indices, component, text in _failure_details(failure):
                        loc = "indices=" + ",".join(str(i) for i in indices)
                        if component is not None:
                            loc += f";component={component}"
                        lines.append(f"algebra={report.algebra} stage={stage_name} "
                                     f"verdict=fail detail={loc};residual={compact(text)}")
    return lines


# -- invariants --------------------------------------------------------------


@dataclass
class InvariantRecord:
    algebra: str
    stage: str
    label: str       # sample coordinates, e.g. "alpha=2" or "t=1;alpha=2"
    ok: bool
    detail: str


def invariant_records(alg: AlgebraFile, cfg: RunConfig) -> list[InvariantRecord]:
    corrected = cfg.errata_mode == "corrected"
    mu = structure_constants(alg, corrected=corrected)
    block = alg.deformation
    spec = DeformationSpec(mu, SubspaceSpec(block.ideal), block.outside,
                           ScalarMatrix.diagonal(block.diagonal))
    mu_t = deform(mu, go_cocycle(spec))
    alphas = cfg.alpha_samples if "alpha" in alg.params else (None,)
    records = []
    for alpha in alphas:
        base_label = "alpha=-" if alpha is None else f"alpha={alpha}"
        algebra = RationalAlgebra.from_structure(mu, alpha=alpha)
        lcs = lower_central_series(algebra)
        ds = derived_series(algebra)
        filiform = lcs == filiform_profile(algebra.dim)
        center = center_dim(algebra)
        der_dim, _ = derivation_algebra(algebra)
        char_nilp = is_characteristically_nilpotent(algebra)
        profile = ",".join(str(d) for d in lcs)
        records.append(InvariantRecord(alg.name, "filiform", base_label, filiform,
                                       f"lcs=({profile})"))
        records.append(InvariantRecord(alg.name, "derived", base_label, ds[-1] == 0,
                                       "derived=(" + ",".join(str(d) for d in ds) + ")"))
        records.append(InvariantRecord(alg.name, "center", base_label, center == 1,
                                       f"dim={center}"))
        records.append(InvariantRecord(alg.name, "der-dim", base_label, True,
                                       f"dim={der_dim}"))
        records.append(InvariantRecord(alg.name, "char-nilpotent", base_label,
                                       char_nilp, f"value={'yes' if char_nilp else 'no'}"))
        for t in cfg.t_samples:
            label = f"t={t};{base_label}"
            deformed = RationalAlgebra.from_structure(mu_t, t=t, alpha=alpha)
            lcs_t = lower_central_series(deformed)
            ds_t = derived_series(deformed)
            solvable = ds_t[-1] == 0
            non_nilpotent = lcs_t[-1] != 0
            records.append(InvariantRecord(
                alg.name, "solvable", label, solvable,
                "derived=(" + ",".join(str(d) for d in ds_t) + ")"))
            records.append(InvariantRecord(
                alg.name, "non-nilpotent", label, non_nilpotent,
                "lcs=(" + ",".join(str(d) for d in lcs_t) + ")"))
    return records


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


def counterexample_lines(corpus: dict[str, AlgebraFile], cfg: RunConfig) -> tuple[list[str], bool]:
    alg = corpus["mu17"]
    mu = structure_constants(alg, corrected=cfg.errata_mode == "corrected")
    spec = counterexample_spec(mu)
    phi = go_cocycle(spec)
    mu_t = deform(mu, phi)
    expansion = jacobi_check(mu, phi)
    cocycle_ok = not expansion.coefficient(1)
    bracket_ok = not expansion.coefficient(2)
    jacobi_ok = expansion.ok
    valid = cocycle_ok and bracket_ok and jacobi_ok
    weight_zero = column_is_zero(phi.bracket(1, 2))

    lines = ["counterexample: mu17 with derivation diag(0, 1, 1, 1, 1, 1, 1) "
             "on the ideal <Y2..Y8>"]
    lines.append(f"deformation valid: {'yes' if valid else 'no'}; "
                 "degeneration certificate: none shipped; "
                 "non-existence: asserted, unverified")
    lines.append(f"  cocycle: {'pass' if cocycle_ok else 'fail'}")
    lines.append(f"  bracket: {'pass' if bracket_ok else 'fail'}")
    lines.append(f"  jacobi of the family: {'pass' if jacobi_ok else 'fail'}")
    lines.append(f"  mu_D(Y1, Y2) = 0: {'yes' if weight_zero else 'no'}")
    for t in cfg.t_samples:
        algebra = RationalAlgebra.from_structure(mu_t, t=t)
        lcs = lower_central_series(algebra)
        ds = derived_series(algebra)
        lines.append(f"  family at t={t}: lcs=({','.join(str(d) for d in lcs)}) "
                     f"derived=({','.join(str(d) for d in ds)}) "
                     f"solvable={'yes' if ds[-1] == 0 else 'no'} "
                     f"nilpotent={'yes' if lcs[-1] == 0 else 'no'}")
    base_lcs = lower_central_series(RationalAlgebra.from_structure(mu))
    lines.append(f"  base algebra: lcs=({','.join(str(d) for d in base_lcs)}) "
                 f"filiform={'yes' if base_lcs == filiform_profile(mu.dim) else 'no'}")
    return lines, valid


# -- commands ----------------------------------------------------------------


def _emit(lines: list[str], cfg: RunConfig) -> None:
    text = "\n".join(lines) + "\n"
    if cfg.output is not None:
        cfg.output.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_verify(cfg: RunConfig) -> int:
    corpus = load_corpus(cfg.data_path)
    names = _resolve_names(corpus, list(cfg.names), need_certificate=True)
    reports = [verify_algebra(corpus[name], cfg.errata_mode == "corrected")
               for name in names]
    if cfg.report_format == "machine":
        lines = render_verify_machine(reports)
    else:
        lines = render_verify_text(reports)
    _emit(lines, cfg)
    return 0 if all(r.passed for r in reports) else 1


def cmd_invariants(cfg: RunConfig) -> int:
    corpus = load_corpus(cfg.data_path)
    names = _resolve_names(corpus, list(cfg.names), need_certificate=False)
    lines: list[str] = []
    all_ok = True
    for name in names:
        records = invariant_records(corpus[name], cfg)
        all_ok = all_ok and all(r.ok for r in records)
        if cfg.report_format == "machine":
            lines.extend(render_invariants_machine(records))
        else:
            lines.extend(render_invariants_text(name, records))
    _emit(lines, cfg)
    return 0 if all_ok else 1


def cmd_counterexample(cfg: RunConfig) -> int:
    corpus = load_corpus(cfg.data_path)
    lines, valid = counterexample_lines(corpus, cfg)
    _emit(lines, cfg)
    return 0 if valid else 1


def cmd_report(cfg: RunConfig) -> int:
    corpus = load_corpus(cfg.data_path)
    names = _resolve_names(corpus, list(cfg.names), need_certificate=True)
    reports = [verify_algebra(corpus[name], cfg.errata_mode == "corrected")
               for name in names]
    records = []
    for name in names:
        records.extend(invariant_records(corpus[name], cfg))
    ok = all(r.passed for r in reports) and all(r.ok for r in records)
    if cfg.report_format == "machine":
        lines = render_verify_machine(reports) + render_invariants_machine(records)
    else:
        lines = ["== degeneration certificates =="]
        lines += render_verify_text(reports)
        lines.append("")
        lines.append("== invariants ==")
        for name in names:
            lines += render_invariants_text(
                name, [r for r in records if r.algebra == name])
    _emit(lines, cfg)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        names=tuple(getattr(args, "names", ()) or ()),
        report_format=getattr(args, "report_format", "text"),
        errata_mode=args.errata,
        data_path=args.data,
        output=args.output,
    )
    if getattr(args, "t", None):
        cfg.t_samples = tuple(args.t)
    if getattr(args, "alpha", None):
        cfg.alpha_samples = tuple(args.alpha)
    try:
        cfg.validate()
        command = {
            "verify": cmd_verify,
            "invariants": cmd_invariants,
            "counterexample": cmd_counterexample,
            "report": cmd_report,
        }[args.command]
        return command(cfg)
    except (UsageError, FilicertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
