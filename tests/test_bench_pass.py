"""One pass of each benchmark workload gets every answer right.

The benchmark's own tests (``bench/test_bench.py``, which the tier-1 suite
also collects) check its harness on a few commands, not each workload's
whole pass, so a change that makes the benchmark's answers wrong (a wrong
verdict, a drifted stdout) would otherwise show only in a benchmark run.
Each workload's inputs are built at a fixed seed with
``bench/workloads.make_inputs`` and checked after one
``bench/worker.one_pass`` with the benchmark's own ``check_pass``.
"""

from __future__ import annotations

import pytest

from helpers import load_bench_module


@pytest.mark.parametrize("workload", ["certify", "invariants", "localize"])
def test_one_bench_pass_is_correct(monkeypatch, tmp_path, workload):
    workloads = load_bench_module(monkeypatch, "workloads")
    worker = load_bench_module(monkeypatch, "worker")
    inputs = workloads.make_inputs(workload, 71, tmp_path / "catalog")
    result = worker.one_pass(inputs)
    records, failed, _, drift = workloads.check_pass(workload, inputs, result)
    assert records > 0
    assert (failed, drift) == (0, [])
