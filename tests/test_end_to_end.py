"""Whole-program checks: pinned stdout of the certify and invariants commands,
and the demos."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from filicert.cli import main

ROOT = Path(__file__).resolve().parent.parent
PINS = json.loads((ROOT / "bench" / "stdout_sha256.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(PINS["certify"]))
def test_certify_stdout_matches_the_pinned_digest(capsys, command):
    main(command.split())
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINS["certify"][command]


@pytest.mark.parametrize("command", sorted(PINS["invariants"]))
def test_invariants_stdout_matches_the_pinned_digest(capsys, command):
    main(command.split())
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINS["invariants"][command]


@pytest.mark.parametrize("demo", sorted(path.name for path in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
