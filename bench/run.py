"""filicert benchmark.

    python3 bench/run.py --workload certify|invariants|localize \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
`src/`, nothing is installed.  The run makes its inputs from the seed
(see `workloads.py`), times set-up in fresh interpreters, runs the workload
passes in a fresh worker process (`worker.py`), checks every output against
the known answers, and prints as its last stdout line one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones (`tracing.py`).

End-to-end metrics, in reference seconds (`calibrate.py`: wall time scaled
by how long a fixed piece of reference work takes around it, so that a busy
shared host does not read as a slower program):
  setup_s      median over several fresh interpreters of the time spent in
               `import filicert` plus `load_corpus` of the workload's catalog;
               half of them start before the passes and half after
  catalog_s    median time of one workload pass, tracing off
  peak_rss_mb  peak resident memory of the worker process

The spans, the checked outputs and a record of the run (Python version,
git commit, CPU count) are written under `.bench_runs/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify", "invariants", "localize")
SETUP_REPEATS = 12
SETUP_CODE = ("import sys, time; start = time.perf_counter(); import filicert; "
              "filicert.load_corpus(sys.argv[2] if len(sys.argv) > 2 else None); "
              "elapsed = time.perf_counter() - start; sys.path.insert(0, sys.argv[1]); "
              "import calibrate; print(elapsed, calibrate.time_reference(6))")
RUN_LIMIT_S = 170


def git_commit(root: Path) -> str | None:
    """The checked-out commit, or None outside a git checkout."""
    if not (root / ".git").exists():
        return None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=30,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return git.stdout.strip()


def units(root: Path) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def measure_setup(env: dict, data: str | None) -> float:
    """Reference seconds that a fresh interpreter spends in `import filicert`
    plus `load_corpus`, timed inside it (interpreter start-up is not the
    program's) and scaled by the reference work timed right after."""
    import calibrate
    argv = [sys.executable, "-c", SETUP_CODE, str(HERE)] + ([data] if data else [])
    child = subprocess.run(argv, env=env, check=True, timeout=60,
                           capture_output=True, text=True)
    elapsed, per_unit = map(float, child.stdout.split())
    return elapsed * calibrate.REFERENCE_S / per_unit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "filicert" / "__init__.py").is_file():
        print(f"error: no filicert sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    out_dir = root / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    inputs = workloads.make_inputs(args.workload, args.seed, out_dir / "catalog")
    env = dict(os.environ, PYTHONPATH=str(src))

    def measure_setups() -> list[float]:
        return [] if args.trace else [measure_setup(env, inputs["data"])
                                      for _ in range(SETUP_REPEATS // 2)]

    setup = measure_setups()

    config = {key: inputs[key] for key in ("data", "commands", "cells")}
    config.update(seconds=args.seconds, trace=bool(args.trace), out_dir=str(out_dir),
                  result=str(out_dir / "result.json"))
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    budget = max(10.0, RUN_LIMIT_S - (time.perf_counter() - started))
    try:
        worker = subprocess.run([sys.executable, str(HERE / "worker.py"), str(config_path)],
                                env=env, timeout=budget, capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {budget:.0f} s", file=sys.stderr)
        return 1
    if worker.returncode != 0:
        print(worker.stderr, file=sys.stderr, end="")
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(Path(config["result"]).read_text(encoding="utf-8"))
    if not Path(result["filicert_file"]).resolve().is_relative_to(src):
        print(f"error: imported {result['filicert_file']}, not the checkout's", file=sys.stderr)
        return 1
    setup += measure_setups()

    per_pass, failed, unconstrained, drift = workloads.check_pass(
        args.workload, inputs, result["first"])
    passes = len(result["digests"])
    repeats_differ = sum(d != result["digests"][0] for d in result["digests"][1:])
    failed += repeats_differ * per_pass
    attempted = per_pass * passes

    if args.trace:
        values = result["layer"]
    else:
        values = {"setup_s": statistics.median(setup),
                  "catalog_s": statistics.median(result["reference_s"]),
                  "peak_rss_mb": result["peak_rss_mb"]}
    unit = units(HERE.parent)
    metrics = {name: {"value": value, "unit": unit[name]} for name, value in values.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_commit": git_commit(root), "nproc": os.cpu_count(),
        "passes": passes, "records_per_pass": per_pass, "failed": failed,
        "repeats_differing": repeats_differ, "stdout_drift": drift,
        "unconstrained_cells": unconstrained, "setup_s": setup,
        "untraced_s": result["untraced_s"], "reference_s": result["reference_s"],
        "reference_samples": result["reference_samples"],
        "traced_s": result["traced_s"],
        "metrics": metrics,
    }
    (out_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for line in drift:
        print(f"stdout drift: `filicert {line}` no longer matches its pinned sha256",
              file=sys.stderr)
    print(f"{args.workload} seed={args.seed} passes={passes} records={attempted} "
          f"failed={failed} unconstrained_cells={unconstrained} "
          f"python={record['python']} nproc={record['nproc']} commit={record['git_commit']}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0 and not drift, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
