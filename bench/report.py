"""Every end-to-end and per-layer metric of every workload, with its unit.

    python3 bench/report.py [--seed N] [--seconds S]

Runs `bench/run.py` for each workload untraced and traced (six runs, one
after the other) from the root of a source checkout and prints one table.

It then checks that on `invariants` the self times of the `invariants` and
`linalg` spans account for the pass: all figures are reference seconds of
the traced run,
whose layer metrics are those of its fastest traced pass, and the gap between
them and that run's fastest untraced pass may be at most the tracing overhead
plus the spread of the untraced passes (on this workload the overhead is a
few milliseconds, less than pass-to-pass noise, so it alone can read
negative).  The exit code is nonzero when the check fails or a run is
incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    results = {(w, t): run(w, args.seed, args.seconds, t) for w in WORKLOADS for t in (0, 1)}
    names = [m for t in (0, 1) for m in results[(WORKLOADS[0], t)]["metrics"]]
    print(f"{'metric':40s} " + " ".join(f"{w:>12s}" for w in WORKLOADS) + "  unit")
    for name in names:
        cells = [results[(w, t)]["metrics"][name] for w in WORKLOADS for t in (0, 1)
                 if name in results[(w, t)]["metrics"]]
        print(f"{name:40s} " + " ".join(f"{c['value']:12.6g}" for c in cells)
              + f"  {cells[0]['unit']}")
    for (w, t), result in results.items():
        print(f"{w} trace={t}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
    layer = results[("invariants", 1)]["metrics"]
    record = json.loads((Path.cwd() / ".bench_runs" / f"invariants-seed{args.seed}-trace1"
                         / "record.json").read_text(encoding="utf-8"))
    untraced = record["reference_s"]
    catalog = min(untraced)
    covered = layer["invariants.self_s"]["value"] + layer["linalg.self_s"]["value"]
    overhead = layer["trace.overhead_s"]["value"]
    allowed = abs(overhead) + max(untraced) - catalog
    attributed = abs(catalog - covered) <= allowed
    print(f"invariants: fastest untraced pass {catalog:.3f} s; self time of the invariants "
          f"and linalg spans {covered:.3f} s; gap {catalog - covered:+.3f} s, allowed "
          f"{allowed:.3f} s (tracing overhead {overhead:+.3f} s): "
          f"{'ok' if attributed else 'NOT ATTRIBUTED'}")
    if not attributed:
        return 1
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
