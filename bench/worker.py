"""One benchmark process: set-up, then a closed loop of checks.

run.py starts this script in a fresh interpreter for every sample, so
import cost, warm-up, memory and any cache the library keeps belong to
that sample alone.  One caller issues each check after the previous one
returned; there are no threads and no other processes.

    worker.py --workload NAME --seed N --setup-only
    worker.py --workload NAME --seed N --seconds S
    worker.py --workload NAME --seed N --count N [--trace-out FILE]

--count 0 runs the workload's ``trace_checks``.

The last line of standard output is one JSON object with the results.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: before regulab is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402  (imports regulab)

SRC = Path(__file__).resolve().parent.parent / "src"


def judge(check, tracer=None, index=None):
    """Run one check; return (seconds, margin or None, failure text or None)."""
    scope = tracer.root(index) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with scope:
            comparisons = workloads.run_check(check)
    except Exception as exc:  # a raised check is a failed check; the run goes on
        return time.perf_counter() - t0, None, f"{check.label}: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if not comparisons:
        return seconds, None, f"{check.label}: made no comparison"
    bad = [c for c in comparisons if not c.passed]
    why = f"{check.label}: residual {bad[0].residual:.3g} above tol {bad[0].tol:.3g}" if bad else None
    return seconds, min(c.margin_dec for c in comparisons), why


def measure(name, seed, seconds=None, count=None, tracer=None):
    """Closed loop over the seeded stream until the deadline or the count.

    The accuracy margin is the median over the checks that returned: it
    does not drift with how many checks a faster or slower machine runs.
    """
    checks = workloads.stream(name, seed)
    times, margins, failures = [], [], []
    deadline = time.perf_counter() + (seconds or 0.0)

    def more():
        if count is not None:
            return len(times) < count
        return not times or time.perf_counter() < deadline

    while more():
        dt, margin, why = judge(next(checks), tracer, len(times))
        times.append(dt)
        if margin is not None:
            margins.append(margin)
        if why:
            failures.append(why)
    return {
        "attempted": len(times),
        "failed": len(failures),
        "failures": failures[:20],
        "times": times,
        "margin_dec": statistics.median(margins) if margins else float("nan"),
        "margin_min_dec": min(margins, default=float("nan")),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--count", type=int)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args(argv)

    import numpy
    import regulab
    import scipy

    if not Path(regulab.__file__).resolve().is_relative_to(SRC):
        print(f"error: regulab imported from {regulab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    _, _, warm_why = judge(workload.warmup)
    out = {"setup_s": time.perf_counter() - T0, "warmup_failure": warm_why}
    if not args.setup_only:
        tracer = tracing.Tracer() if args.trace_out else None
        with tracing.installed(tracer) if tracer else contextlib.nullcontext():
            count = args.count or (None if args.seconds else workload.trace_checks)
            out.update(measure(args.workload, args.seed, args.seconds, count, tracer))
        if tracer:
            out["layers"] = tracing.layer_metrics(tracer)
            out["wall_s"] = tracer.wall()
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            args.trace_out.write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "check"], "spans": tracer.spans}))
        else:
            out["wall_s"] = sum(out["times"])
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["versions"] = {"python": platform.python_version(),
                           "numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(out))
    return 1 if warm_why else 0


if __name__ == "__main__":
    sys.exit(main())
