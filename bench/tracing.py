"""Span tracer for the traced benchmark run.

``installed(tracer)`` wraps the layer functions in ``LAYERS`` at every
regulab module attribute that holds them (so both ``mahler.split_angles``
and names bound by ``from .numerics import ...`` are covered) and puts
the originals back on exit.  Untraced runs never call it.

Spans are kept in memory as ``[name, start, end, parent, check]`` rows,
``parent`` being the row index of the enclosing span and ``check`` the
index of the benchmark check that caused it.

Integrand time is credited to the code that supplied the integrand: an
integrator's callbacks into ``f`` are timed, taken off the integrator's
self time and added to its caller's, and spans opened inside a callback
get the caller as parent.  So Jensen's log-sum integrand counts for
``mahler.mahler_quadratic_y``, the torus method's inner integrals for
``mahler.mahler_torus2``, and the integrators keep only their own node
and error bookkeeping.  Self times of all spans add up to the wall time
of the root spans exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter

perf = time.perf_counter

ROOT = "bench.check"


# "<module>.<function>" -> (wrapper kind, (count name, count from the result))
#   span: a timed span per call; integrator: span plus integrand crediting;
#   count: a call count only (called per quadrature node or per q-power,
#   where a span per call would cost more than the call)
_EVALS = ("evals", lambda result: result.evaluations)
LAYERS = {
    "mahler.mahler_quadratic_y": ("span", None),
    "mahler.split_angles": ("span", ("panels", lambda bounds: len(bounds) - 1)),
    "mahler.mahler_torus2": ("span", None),
    "numerics.integrate_adaptive": ("integrator", _EVALS),
    "numerics.integrate_endpoint_singular": ("integrator", _EVALS),
    "numerics.solve_quadratic_stable": ("count", None),
    "periods.verify_period_identity": ("span", None),
    "periods.change_of_variable_check": ("span", None),
    "lfunctions.ap_table": ("span", ("primes", lambda apt: len(apt.ap))),
    "lfunctions.an_coefficients": ("span", None),
    "lfunctions.epsilon_detect": ("span", None),
    "lfunctions.lambda_completed": ("span", None),
    "elliptic.period_lattice": ("span", None),
    "elliptic.elliptic_log": ("span", None),
    "divisors.family_embedding": ("span", None),
    "divisors.derive_equivalence": ("span", ("steps", lambda report: len(report.steps))),
    "divisors.diamond": ("span", None),
    "dilogarithm.elliptic_dilog": ("span", None),
    "dilogarithm.bloch_wigner": ("count", None),
    "cli.main": ("span", None),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, check]
        self.callback_out = []  # per span: time spent in integrand callbacks
        self.callback_in = []  # per span: integrand time credited to it
        self.counts = Counter()  # "<layer>.<count>" -> total
        self.top = None  # row of the innermost open span
        self.check = None  # index of the current benchmark check

    def open(self, name: str) -> int:
        row = len(self.spans)
        self.spans.append([name, perf(), 0.0, self.top, self.check])
        self.callback_out.append(0.0)
        self.callback_in.append(0.0)
        self.top = row
        return row

    def close(self, row: int) -> None:
        span = self.spans[row]
        span[2] = perf()
        self.top = span[3]

    @contextlib.contextmanager
    def root(self, check_index: int):
        self.check = check_index
        row = self.open(ROOT)
        try:
            yield
        finally:
            self.close(row)

    def self_times(self) -> dict:
        """Self time per span name, in seconds."""
        own = [s[2] - s[1] - out + inn
               for s, out, inn in zip(self.spans, self.callback_out, self.callback_in)]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        totals = Counter()
        for s, t in zip(self.spans, own):
            totals[s[0]] += t
        return dict(totals)

    def wall(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] is None)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, layer, fn, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[layer + ".calls"] += 1
            row = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(row)
            if extra:
                self.counts[f"{layer}.{extra[0]}"] += extra[1](result)
            return result

        return traced

    def _integrator_wrapper(self, layer, fn, extra):
        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            self.counts[layer + ".calls"] += 1
            row = self.open(layer)
            caller = self.spans[row][3]

            def integrand(*xs):
                t0 = perf()
                self.top = caller
                try:
                    return f(*xs)
                finally:
                    self.top = row
                    self.callback_out[row] += perf() - t0

            try:
                result = fn(integrand, *args, **kwargs)
            finally:
                self.close(row)
                if caller is not None:
                    self.callback_in[caller] += self.callback_out[row]
            self.counts[f"{layer}.{extra[0]}"] += extra[1](result)
            return result

        return traced

    def _count_wrapper(self, layer, fn, _extra):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[layer + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def wrapper(self, layer: str, fn):
        kind, extra = LAYERS[layer]
        make = {"span": self._span_wrapper, "integrator": self._integrator_wrapper,
                "count": self._count_wrapper}[kind]
        return make(layer, fn, extra)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function at each regulab attribute bound to it."""
    wrappers = {}
    for layer in LAYERS:
        module, func = layer.split(".")
        original = getattr(importlib.import_module(f"regulab.{module}"), func)
        wrappers[id(original)] = (original, tracer.wrapper(layer, original))
    modules = [m for name, m in sys.modules.items()
               if name == "regulab" or name.startswith("regulab.")]
    patched = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                setattr(mod, attr, wrappers[id(value)][1])
                patched.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values: calls, self_s and the extra count; 0 where unused."""
    own = tracer.self_times()
    out = {}
    for layer, (kind, extra) in LAYERS.items():
        calls = tracer.counts[f"{layer}.calls"]
        out[f"{layer}.calls"] = calls
        if kind == "count":
            continue
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
        if extra:
            out[f"{layer}.{extra[0]}"] = tracer.counts[f"{layer}.{extra[0]}"]
        if extra is _EVALS:
            out[f"{layer}.evals_per_call"] = out[f"{layer}.evals"] / calls if calls else 0.0
    out[f"{ROOT}.self_s"] = own.get(ROOT, 0.0)
    return out
