"""regulab benchmark: seeded, single-process, closed-loop verification runs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is used from ``src/`` as it
stands, with nothing to build.  Workloads, metrics, units, directions
and bounds are declared in ``BENCHMARK.json``; this script refuses to
report a metric set that differs from the declaration.

--trace 0 starts ``SETUP_PROBES`` fresh processes that only set up
(import regulab and run one untimed warm-up check), then one fresh
process that sets up and runs checks for --seconds; it reports the
end-to-end metrics.  --trace 1 runs the same fixed list of checks twice,
untraced and then traced, each in a fresh process; it reports the
per-layer metrics and the traced-over-untraced wall time.

Every check is compared with its tolerance.  A check that misses it or
raises counts as failed and the run goes on; ``correct`` is false when
any check failed.  Human-readable lines come first and the last line of
standard output is the JSON result.  Result files and spans go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def worker(args: list) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one process, one thread
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out after {WORKER_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(name: str, seed: int, seconds: float):
    probes = [worker(["--workload", name, "--seed", str(seed), "--setup-only"])
              for _ in range(SETUP_PROBES)]
    run = worker(["--workload", name, "--seed", str(seed), "--seconds", repr(seconds)])
    times = run["times"]
    metrics = {
        "checks_per_s": run["attempted"] / sum(times),
        "pass_frac": 1.0 - run["failed"] / run["attempted"],
        "tol_margin_dec": run["margin_dec"],
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(w["setup_s"] for w in probes + [run]),
    }
    # Printed, not gated: on a shared 2-core machine the 10-run spread of
    # the median check time reached the largest allowed bound, and the
    # p90 needs at least ten samples beyond it.
    notes = [f"check_ms.p50 = {1e3 * statistics.median(times):.4f} ms over {len(times)} checks"]
    if len(times) >= 100:
        notes.append(f"check_ms.p90 = {1e3 * statistics.quantiles(times, n=10)[8]:.4f} ms")
    notes += ["set-up samples (s): " + ", ".join(f"{w['setup_s']:.4f}" for w in probes + [run]),
              f"tol_margin_dec is the median over checks; the minimum is "
              f"{run['margin_min_dec']:.4f} (not gated: it swings with the seeded inputs)"]
    return metrics, probes + [run], notes


def traced(name: str, seed: int):
    fixed = ["--workload", name, "--seed", str(seed), "--count", "0"]
    plain = worker(fixed)
    spans = OUT / f"spans-{name}-seed{seed}.json"
    run = worker(fixed + ["--trace-out", str(spans)])
    metrics = dict(run["layers"])
    metrics["trace.overhead"] = run["wall_s"] / plain["wall_s"]
    own = {k[:-len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
    total = sum(own.values())
    notes = [f"spans written to {spans.relative_to(ROOT)}",
             f"traced wall {run['wall_s']:.4f} s, untraced {plain['wall_s']:.4f} s, "
             f"sum of self times {total:.4f} s"]
    for layer, t in sorted(own.items(), key=lambda kv: -kv[1])[:6]:
        notes.append(f"self time {layer:<42} {t:9.4f} s  {100 * t / total:5.1f}%")
    return metrics, [plain, run], notes


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "regulab" / "__init__.py").is_file():
        print(f"error: no regulab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            metrics, workers, notes = traced(args.workload, args.seed)
        else:
            metrics, workers, notes = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    if any(math.isnan(v) for v in metrics.values()):  # no check returned a result
        print(f"error: undefined metrics {metrics}", file=sys.stderr)
        return 1

    runs = [w for w in workers if "attempted" in w]  # set-up probes run no checks
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    warm = [w["warmup_failure"] for w in workers if w["warmup_failure"]]
    failures = [f for r in runs for f in r["failures"]] + warm
    result = {
        "correct": failed == 0 and not warm,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": declared[k]["unit"]} for k in declared},
    }
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine(), "versions": runs[-1]["versions"],
            "loop": "closed, 1 process, no threads", "failures": failures,
            "notes": notes, "result": result, "check_seconds": runs[-1]["times"]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1))

    m = info["machine"]
    print(f"regulab bench  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: nproc={m['nproc']} usable={m['cpus_usable']} cpu={m['cpu']}  "
          + " ".join(f"{k}={v}" for k, v in info["versions"].items()))
    print(f"checks: attempted={attempted} failed={failed} "
          f"fail_frac={failed / attempted:.4g}  ({info['loop']})")
    for why in failures:
        print(f"  FAILED {why}")
    for k, d in declared.items():
        print(f"  {k:<48} {metrics[k]:>14.6g} {d['unit']:<10} {d['better']} is better")
    for note in notes:
        print(f"  {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
