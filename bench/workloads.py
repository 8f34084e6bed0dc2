"""Workload inputs made from a seed, and the checks of the program's answers.

certify     the bundled catalog through `verify --all` (both errata modes,
            both formats) and `counterexample`; the seed orders the commands.
invariants  `invariants mu06 --alpha -1 --alpha 2` on a copy of mu06 whose
            basis signs come from the seed.  Flipping the sign of basis
            vectors 2..8 is an isomorphism that fixes the deformation block,
            so every invariant and the whole stdout must not depend on the
            seed.  alpha = -1 is the one specialization of the catalog that
            is not characteristically nilpotent (Der of dimension 11, the
            full commutator series); alpha = 2 takes the common path, a
            characteristically nilpotent Der of dimension 10.
localize    single-cell corruptions of the corrected certificates, checked
            by `verify --format machine` and recovered by
            `solve_certificate_cell`.  Each table gets eight, at the cells of
            a seeded permutation (one per row and column), with a fixed set
            of offsets (Laurent degree 0..3 twice, alpha degree 0 and 1
            alternately) in seeded order.  Where a corruption sits and how
            large it is changes the cost of a cell; this design keeps the
            work of a pass within about 5% across seeds, where five cells
            drawn at random per table with random offsets varied it by 17%.

The known answers come from `known_answers.json`, written by hand from the
paper and the README; `stdout_sha256.json` pins the exact stdout of each
certify and invariants command as a drift check.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from filicert.dataio import (VERIFIED_NAMES, apply_errata, load_corpus,
                             parse_scalar, serialize_algebra)
from filicert.errors import FilicertError
from filicert.scalar import Scalar

HERE = Path(__file__).resolve().parent
KNOWN = json.loads((HERE / "known_answers.json").read_text(encoding="utf-8"))
PINNED = json.loads((HERE / "stdout_sha256.json").read_text(encoding="utf-8"))

CERTIFY_COMMANDS = (
    ("verify", "--all"),
    ("verify", "--all", "--format", "machine"),
    ("verify", "--all", "--errata", "corrected"),
    ("verify", "--all", "--errata", "corrected", "--format", "machine"),
    ("counterexample",),
)
INVARIANT_NAMES = ("mu06",)
INVARIANT_ALPHAS = ("-1", "2")
# One corrupted cell per row and per column of the 8x8 certificate.
CELLS_PER_ALGEBRA = 8
OFFSET_COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
                 Fraction(1, 2), Fraction(-5, 7))
STRUCTURE_STAGES = ("jacobi", "ideal", "derivation", "cocycle", "bracket", "limit")


def make_inputs(workload: str, seed: int, catalog: Path) -> dict:
    """Write the workload's catalog under `catalog` (unless it uses the
    bundled one) and return the commands, cells and reference values."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        commands = [list(c) for c in CERTIFY_COMMANDS]
        rng.shuffle(commands)
        return {"data": None, "commands": commands, "cells": [], "reference": {}}
    corpus = load_corpus()
    catalog.mkdir(parents=True, exist_ok=True)
    if workload == "invariants":
        for name in INVARIANT_NAMES:
            alg = corpus[name]
            signs = [1] + [rng.choice((1, -1)) for _ in range(alg.dim - 1)]
            brackets = {(i, j): tuple(s * (signs[i - 1] * signs[j - 1] * signs[k])
                                      for k, s in enumerate(column))
                        for (i, j), column in alg.brackets.items()}
            flipped = replace(alg, brackets=brackets, basis_change=None,
                              certificate=None, derivation_meta=None, errata=())
            (catalog / name).write_text(serialize_algebra(flipped), encoding="utf-8")
        command = ["invariants", "--data", str(catalog), *INVARIANT_NAMES]
        for alpha in INVARIANT_ALPHAS:
            command += ["--alpha", alpha]
        return {"data": str(catalog), "commands": [command], "cells": [],
                "reference": {}}
    if workload != "localize":
        raise ValueError(f"unknown workload {workload!r}")
    cells, reference = [], {}
    for name in VERIFIED_NAMES:
        alg = apply_errata(corpus[name])
        columns = list(range(1, CELLS_PER_ALGEBRA + 1))
        rng.shuffle(columns)
        offsets = [(OFFSET_COEFFS[k % len(OFFSET_COEFFS)], k % 4, k % 2)
                   for k in range(CELLS_PER_ALGEBRA)]
        rng.shuffle(offsets)
        for i, j in enumerate(columns, start=1):
            original = alg.certificate.get((i, j), Scalar())
            coeff, t_exp, alpha_exp = offsets.pop()
            offset = Scalar.term(coeff, t_exp, alpha_exp if alg.params else 0)
            certificate = dict(alg.certificate)
            certificate[(i, j)] = original + offset
            table = f"{name}-g{i}{j}"
            corrupted = replace(alg, name=table, certificate=certificate, errata=())
            (catalog / table).write_text(serialize_algebra(corrupted), encoding="utf-8")
            cells.append([table, i, j])
            reference[table] = original
    command = ["verify", "--data", str(catalog), "--format", "machine",
               *(c[0] for c in cells)]
    return {"data": str(catalog), "commands": [command], "cells": cells,
            "reference": reference}


# -- checks ------------------------------------------------------------------
#
# Each check returns (records, failed).  A crash or a wrong exit code fails
# every record of that command.

def _machine_records(stdout: str):
    """(algebra, stage, verdict, detail) of each well-formed machine record."""
    for line in stdout.splitlines():
        record = re.fullmatch(r"algebra=(\S+) stage=(\S+) verdict=(\S+) detail=(.*)", line)
        if record:
            yield record.groups()


def _verify_records(stdout: str, machine: bool) -> dict[str, tuple[set, int]]:
    """algebra -> (failing stages, number of nonzero eq1 residual components)."""
    found: dict[str, tuple[set, int]] = {}
    if machine:
        for algebra, stage, verdict, detail in _machine_records(stdout):
            stages, components = found.setdefault(algebra, (set(), 0))
            if verdict == "fail":
                stages.add(stage)
                components += stage == "eq1" and ";component=" in detail
            found[algebra] = (stages, components)
        return found
    current = None
    for line in stdout.splitlines():
        head = re.fullmatch(r"(\S+): (PASS|FAIL)(?: \[(.*)\])?", line)
        if head:
            current = head.group(1)
            stages = set(head.group(3).split(", ")) if head.group(3) else set()
            found[current] = (stages, 0)
        elif current and re.match(r"  eq1: \(\d+, \d+\) component \d+: ", line):
            stages, components = found[current]
            found[current] = (stages, components + 1)
    return found


def check_certify(argv: list[str], rc, stdout: str) -> tuple[int, int]:
    if argv[0] == "counterexample":
        known = KNOWN["counterexample"]
        valid = "deformation valid: yes" in stdout
        return 1, int(rc != known["exit"] or valid != known["valid"])
    mode = "corrected" if "corrected" in argv else "verbatim"
    known = KNOWN["verify"][mode]
    names = KNOWN["names"]
    if rc != known["exit"]:
        return len(names), len(names)
    found = _verify_records(stdout, machine="machine" in argv)
    failed = 0
    for name in names:
        expect = known["fail"].get(name, {"stages": [], "residual_components": 0})
        got = found.get(name)
        if got != (set(expect["stages"]), expect["residual_components"]):
            failed += 1
    return len(names), min(len(names), failed + len(set(found) - set(names)))


def check_invariants(argv: list[str], rc, stdout: str) -> tuple[int, int]:
    known = KNOWN["invariants"]
    expected = {}
    for name in INVARIANT_NAMES:
        for alpha in INVARIANT_ALPHAS:
            base = f"alpha={alpha}"
            for stage in known["base_stages"]:
                expected[(name, stage, base)] = True
            for t in known["t_samples"]:
                for stage in known["deformed_stages"]:
                    expected[(name, stage, f"t={t};{base}")] = True
    for item in known["fail"]:
        key = (item["algebra"], item["stage"], item["label"])
        if key in expected:
            expected[key] = False
    if rc != (0 if all(expected.values()) else 1):
        return len(expected), len(expected)
    got, headers, name = {}, {}, None
    for line in stdout.splitlines():
        head = re.fullmatch(r"(\S+): (PASS|FAIL)", line)
        if head:
            name = head.group(1)
            headers[name] = head.group(2) == "PASS"
            continue
        row = re.fullmatch(r"  (\S+=\S+): (.*)", line)
        if row and name:
            for item in row.group(2).split("; "):
                stage, _, rest = item.partition(" ")
                ok = True if stage == "der-dim" else rest.startswith("yes")
                got[(name, stage, row.group(1))] = ok
    failed = sum(got.get(key) != ok for key, ok in expected.items())
    failed += len(set(got) - set(expected))
    for name in INVARIANT_NAMES:
        if headers.get(name) != all(ok for (n, _, _), ok in expected.items() if n == name):
            failed += 1
    return len(expected), min(failed, len(expected))


def check_localize(rc, stdout: str, solutions: list, inputs: dict) -> tuple[int, int, int]:
    """Returns (records, failed, unconstrained cells)."""
    verdicts: dict[str, dict[str, str]] = {}
    for algebra, stage, verdict, _ in _machine_records(stdout):
        stage_verdicts = verdicts.setdefault(algebra, {})
        if stage_verdicts.get(stage) != "fail":
            stage_verdicts[stage] = verdict
    cells = inputs["cells"]
    any_fail = any("fail" in v.values() for v in verdicts.values())
    if rc != (1 if any_fail else 0) or len(solutions) != len(cells):
        return len(cells), len(cells), 0
    failed = unconstrained = 0
    for (table, _, _), (kind, text) in zip(cells, solutions):
        stages = verdicts.get(table, {})
        ok = all(stages.get(stage) == "pass" for stage in STRUCTURE_STAGES)
        if kind == "value":
            ok = ok and stages.get("eq1") == "fail" and \
                _same_scalar(text, inputs["reference"][table])
        elif kind == "InvalidSpec" and "unconstrained" in text:
            unconstrained += 1
            ok = ok and stages.get("eq1") == "pass"
        else:
            ok = False
        failed += not ok
    return len(cells), failed, unconstrained


def _same_scalar(text: str, value: Scalar) -> bool:
    try:
        return parse_scalar(text, ("t", "alpha")) == value
    except FilicertError:
        return False


def stdout_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def pinned_digest(workload: str, argv: list[str]) -> str | None:
    """The pinned stdout sha256 of a certify or invariants command, keyed by
    the command without its `--data` directory."""
    key = " ".join(a for k, a in enumerate(argv)
                   if a != "--data" and (k == 0 or argv[k - 1] != "--data"))
    return PINNED.get(workload, {}).get(key)


def check_pass(workload: str, inputs: dict, result: dict) -> tuple[int, int, int, list]:
    """(records, failed, unconstrained cells, commands whose stdout drifted)
    of one pass."""
    records = failed = unconstrained = 0
    drift = []
    for argv, (rc, stdout, _) in zip(inputs["commands"], result["outputs"]):
        if workload == "localize":
            n, bad, unconstrained = check_localize(rc, stdout, result["solutions"], inputs)
        else:
            check = check_certify if workload == "certify" else check_invariants
            n, bad = check(argv, rc, stdout)
            if stdout_digest(stdout) != pinned_digest(workload, argv):
                drift.append(" ".join(argv))
        records += n
        failed += bad
    return records, failed, unconstrained, drift
