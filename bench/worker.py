"""One measured run in a fresh interpreter: `python3 bench/worker.py CONFIG`.

Runs workload passes through the program's entry points (`filicert.cli.main`
and, for localize, `filicert.deformation.solve_certificate_cell`) until the
next pass would end past the time budget.  The reference work of
`calibrate.py` is sampled all through the passes, and each pass is timed
both in wall seconds and in reference seconds.  With tracing on, traced and
untraced passes alternate; span times are converted to reference seconds,
the layer metrics are those of the fastest traced pass, and the tracing
overhead is its time minus that of the fastest untraced pass.  The result is
written as JSON to the path named in the config; the outputs of the first
pass are kept whole, every later pass only as a digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _call_cli(argv):
    import filicert.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = filicert.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a result to report, not to raise
            rc = "crash"
            err.write(traceback.format_exc())
    return [rc, out.getvalue(), err.getvalue()]


def _solve(corpus, table, i, j):
    import filicert.deformation
    from filicert.dataio import certificate_matrix, structure_constants
    from filicert.errors import InvalidSpec
    from filicert.lie import SubspaceSpec
    from filicert.linalg import ScalarMatrix
    alg = corpus[table]
    block = alg.deformation
    try:
        value = filicert.deformation.solve_certificate_cell(
            structure_constants(alg), SubspaceSpec(block.ideal), block.outside,
            ScalarMatrix.diagonal(block.diagonal), certificate_matrix(alg), (i, j),
            reciprocal=alg.certificate_parameter == "1/t")
    except InvalidSpec as exc:
        return ["InvalidSpec", str(exc)]
    except Exception as exc:  # any other exception fails the cell
        return [type(exc).__name__, str(exc)]
    return ["value", str(value)]


def one_pass(cfg):
    """One workload pass: each command, then for localize the corpus load
    and each cell."""
    outputs = [_call_cli(argv) for argv in cfg["commands"]]
    solutions = []
    if cfg["cells"]:
        import filicert.dataio
        corpus = filicert.dataio.load_corpus(cfg["data"])
        solutions = [_solve(corpus, table, i, j) for table, i, j in cfg["cells"]]
    return {"outputs": outputs, "solutions": solutions}


def _digest(result) -> str:
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def run(cfg) -> dict:
    import filicert
    import filicert.cli  # imported before the first pass is timed
    import filicert.deformation
    from calibrate import Sampler
    from tracing import Tracer, layer_metrics

    clock = time.perf_counter
    seconds = cfg["seconds"]
    untraced, traced, tracers, digests = [], [], [], []  # passes as (start, end)
    first = None
    sampler = Sampler()
    start = clock()
    with sampler:
        while True:
            t0 = clock()
            result = one_pass(cfg)
            untraced.append((t0, clock()))
            digests.append(_digest(result))
            first = first or result
            if cfg["trace"]:
                tracer = Tracer()
                with tracer:
                    t0 = clock()
                    result = one_pass(cfg)
                    traced.append((t0, clock()))
                digests.append(_digest(result))
                tracers.append(tracer)
            elapsed = clock() - start
            if elapsed + elapsed / len(untraced) > seconds:
                break
    ref = sampler.reference_clock()
    reference = [ref(t1) - ref(t0) for t0, t1 in untraced]
    traced_reference = [ref(t1) - ref(t0) for t0, t1 in traced]
    for k, tracer in enumerate(tracers):
        tracer.spans = [(name, ref(t0), ref(t1), parent)
                        for name, t0, t1, parent in tracer.spans]
        tracer.dump(Path(cfg["out_dir"]) / f"spans-{k}.jsonl")
    layer = {}
    if tracers:
        fastest = traced_reference.index(min(traced_reference))
        layer = layer_metrics(tracers[fastest])
        layer["trace.overhead_s"] = traced_reference[fastest] - min(reference)
    return {
        "filicert_file": filicert.__file__,
        "untraced_s": [sampler.wall_seconds(t0, t1) for t0, t1 in untraced],
        "reference_s": reference,
        "reference_samples": [s[2] for s in sampler.samples],
        "traced_s": traced_reference,
        "digests": digests,
        "first": first,
        "layer": layer,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


if __name__ == "__main__":
    config = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    outcome = run(config)
    Path(config["result"]).write_text(json.dumps(outcome), encoding="utf-8")
