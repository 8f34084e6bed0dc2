"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import filicert  # noqa: E402
import filicert.cli  # noqa: E402
import workloads  # noqa: E402
from tracing import (COUNT_METHODS, SPAN_METHODS, Tracer,  # noqa: E402
                     layer_metrics, self_times)
from run import WORKLOADS  # noqa: E402
from worker import _call_cli  # noqa: E402

CHEAP_COMMANDS = (
    ["verify", "mu08"],
    ["verify", "mu06", "--format", "machine", "--errata", "corrected"],
    ["counterexample"],
    ["invariants", "mu06", "--alpha", "2", "--t", "1"],
)


def _snapshot():
    """Every attribute of every filicert module and traced class, by identity."""
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
               if name == "filicert" or name.startswith("filicert.")}
    classes = {}
    for module, cls_name in list(SPAN_METHODS) + list(COUNT_METHODS):
        cls = getattr(sys.modules[f"filicert.{module}"], cls_name)
        classes[cls_name] = dict(cls.__dict__)
    return modules, classes


def test_self_time_on_synthetic_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
        ("b", 9.5, 10.0, 0),
    ]
    assert self_times(spans) == pytest.approx(
        {"root": 10.0 - 3.0 - 4.0 - 0.5, "a": 3.0 - 1.0, "b": 1.0 + 0.5, "c": 4.0})


def test_reference_seconds_scale_by_the_reference_speed():
    sampler = calibrate.Sampler()
    ref = calibrate.REFERENCE_S
    # Samples at 0, 1, 2, 3 s, each 0.1 s long; the machine runs at half the
    # reference speed, so each program second counts as half a second.
    sampler.samples = [(k, k + 0.1, 2 * ref) for k in range(4)]
    clock = sampler.reference_clock()
    assert sampler.wall_seconds(0.5, 2.5) == pytest.approx(2.0 - 0.2)
    assert clock(2.5) - clock(0.5) == pytest.approx((2.0 - 0.2) / 2)
    assert clock(0.05) - clock(-1.0) == 0.0
    assert clock(9.0) - clock(1.05) == pytest.approx(2 * 0.9 / 2)


def test_sampler_restores_the_alarm_handler():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler(interval=0.01) as sampler:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) > 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_traced_stdout_is_byte_identical():
    plain = [_call_cli(argv) for argv in CHEAP_COMMANDS]
    tracer = Tracer()
    with tracer:
        traced = [_call_cli(argv) for argv in CHEAP_COMMANDS]
    assert traced == plain
    assert [rc for rc, _, _ in plain] == [1, 0, 0, 0]
    metrics = layer_metrics(tracer)
    assert metrics["scalar.mul.calls"] > 0
    assert metrics["lie.jacobi_check.s"] > 0
    # One specialization: Der is computed by `invariants` and again inside
    # the characteristic-nilpotency test, both calls seen through one wrapper.
    assert metrics["invariants.derivation_algebra.calls"] == 2
    assert metrics["invariants.der_reuse"] == 0.5


def test_tracer_patches_every_binding_and_restores_them():
    before = _snapshot()
    original = filicert.invariants.derivation_algebra
    with Tracer():
        wrapped = filicert.invariants.derivation_algebra
        assert wrapped is not original
        assert filicert.cli.derivation_algebra is wrapped
        assert filicert.derivation_algebra is wrapped
        assert filicert.scalar.Scalar.__dict__["__mul__"] is not before[1]["Scalar"]["__mul__"]
    after = _snapshot()
    for group_before, group_after in zip(before, after):
        assert group_before.keys() == group_after.keys()
        for name, attrs in group_before.items():
            assert attrs.keys() == group_after[name].keys(), name
            for attr, value in attrs.items():
                assert group_after[name][attr] is value, (name, attr)


def test_checks_count_wrong_verdicts():
    argv = ["verify", "--all"]
    rc, stdout, _ = _call_cli(argv)
    assert workloads.check_certify(argv, rc, stdout) == (10, 0)
    assert workloads.stdout_digest(stdout) == workloads.pinned_digest("certify", argv)
    dropped = "\n".join(line for line in stdout.splitlines()
                        if "component 7" not in line)
    assert workloads.check_certify(argv, rc, dropped) == (10, 1)
    assert workloads.check_certify(argv, 0, stdout) == (10, 10)


def test_localize_inputs_repeat_and_check(tmp_path):
    first = workloads.make_inputs("localize", 5, tmp_path / "a")
    again = workloads.make_inputs("localize", 5, tmp_path / "b")
    assert first["cells"] == again["cells"]
    assert first["reference"] == again["reference"]
    assert len(first["cells"]) == 10 * workloads.CELLS_PER_ALGEBRA
    table, i, j = first["cells"][0]
    inputs = dict(first, cells=[first["cells"][0]])
    argv = ["verify", "--data", first["data"], "--format", "machine", table]
    rc, stdout, _ = _call_cli(argv)
    right = ["value", str(first["reference"][table])]
    wrong = ["value", str(first["reference"][table] + 1)]
    if "stage=eq1 verdict=fail" in stdout:
        assert workloads.check_localize(rc, stdout, [right], inputs) == (1, 0, 0)
        assert workloads.check_localize(rc, stdout, [wrong], inputs) == (1, 1, 0)
    else:
        unconstrained = ["InvalidSpec", f"cell {(i, j)} is unconstrained"]
        assert workloads.check_localize(rc, stdout, [unconstrained], inputs) == (1, 0, 1)
        assert workloads.check_localize(rc, stdout, [right], inputs) == (1, 1, 0)


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer = dict(layer_metrics(Tracer()), **{"trace.overhead_s": 0.0})
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "catalog_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
