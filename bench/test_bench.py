"""Tests of the benchmark itself: seeded inputs, counts, the correctness
gate and the tracer's self-time accounting.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import worker
import workloads
from regulab import mahler, numerics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_what_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert declared == set(tracing.layer_metrics(tracing.Tracer())) | {"trace.overhead"}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_the_same_inputs(name):
    first = workloads.take(name, 7, 60)
    assert first == workloads.take(name, 7, 60)
    assert first != workloads.take(name, 8, 60)


def test_jensen_grid_parameters_are_distinct_and_inside_the_claimed_regimes():
    checks = workloads.take("jensen-grid", 3, 600)
    regimes = {kind: (lo, hi) for kind, lo, hi in workloads.JENSEN_REGIMES}
    for c in checks:
        lo, hi = regimes[c.kind]
        assert lo < c.args[0] < hi
    assert len({c.args for c in checks}) == len(checks)


def test_arith_periods_reuses_each_seeded_parameter_inside_its_regime():
    checks = workloads.take("arith-periods", 3, 47)
    regimes = {"p-doubled-vs-s": (0.0, 8.0), "p-vs-s": (-20.0, -1.0), "q-vs-r": (4.0, 12.0)}
    periods = [c.args for c in checks if c.kind == "period"]
    assert len(periods) == 8
    for which, a in periods:
        lo, hi = regimes[which]
        assert lo < a < hi
        # the Q/R parameter comes back as b = a + 2 in the R-family Steinberg check
        assert len([c for c in checks if a in c.args or a + 2.0 in c.args]) >= 2


def _traced_counts(name, count, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", "5",
         "--count", str(count), "--trace-out", str(tmp_path / "spans.json")],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["failed"] == 0
    return {k: v for k, v in out["layers"].items() if not k.endswith("self_s")}


@pytest.mark.parametrize("name,count", [("jensen-grid", 3), ("torus-xcheck", 1),
                                        ("arith-periods", 47)])
def test_same_seed_gives_the_same_counts_in_fresh_processes(name, count, tmp_path):
    first = _traced_counts(name, count, tmp_path)
    assert any(v for k, v in first.items() if k.endswith(".calls"))
    assert first == _traced_counts(name, count, tmp_path)


def test_a_check_past_its_tolerance_counts_as_failed(monkeypatch):
    monkeypatch.setattr(workloads, "MEASURE_TOL", 1e-300)
    out = worker.measure("jensen-grid", 1, count=3)
    assert (out["attempted"], out["failed"]) == (3, 3)
    assert "above tol" in out["failures"][0]


def test_a_check_that_raises_counts_as_failed_and_the_run_goes_on(monkeypatch):
    best = numerics.QuadratureResult(0.0, 1.0, 1)

    def stalls(alpha):
        raise numerics.NoConvergenceError("stalled", best)

    monkeypatch.setitem(workloads.RUNNERS, "s-eq-p", stalls)
    out = worker.measure("jensen-grid", 1, count=6)
    assert (out["attempted"], out["failed"]) == (6, 2)
    assert all("NoConvergenceError" in f for f in out["failures"])


def test_traced_self_times_sum_to_the_traced_wall_time():
    original = mahler.split_angles
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert mahler.split_angles is not original
        worker.measure("jensen-grid", 2, count=2, tracer=tracer)
        worker.measure("torus-xcheck", 2, count=1, tracer=tracer)
        worker.measure("arith-periods", 2, count=47, tracer=tracer)
    assert mahler.split_angles is original
    own = tracer.self_times()
    assert math.isclose(sum(own.values()), tracer.wall(), rel_tol=1e-9)
    assert all(t > -1e-9 for t in own.values())
    # integrand time is credited to the code that supplied the integrand
    assert own["mahler.mahler_torus2"] > own["numerics.integrate_adaptive"]


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "jensen-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
