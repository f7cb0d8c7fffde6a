"""Run one piqcheck CLI invocation with per-layer tracing, from outside the program.

Usage::

    PYTHONPATH=src python3 perfbench/traced.py SUMMARY.json CLI-ARG...

An import hook wraps public entry points of ``dsl``, ``catalog``, ``theta``,
``series``, ``field``, ``modular`` and ``cli`` as each module finishes
loading, so names bound by ``from .x import y`` inside the package are the
wrapped ones too.  Every wrapped call records a span: name, parent span,
start and end, in the thread's CPU time, so that time other processes take
on the same CPU is not charged to a span.  The span covers the wrapped call
alone; the wrapper's own bookkeeping (including the stride probe) is kept
per span as ``overhead`` and charged to neither the span nor its parent.

After ``piqcheck.cli.main`` returns, the spans are reduced to a summary
(calls and self time per span name, plus the counters below) and written to
SUMMARY.json.  Stdout and the exit code are the CLI's own.

Counters: mean result window of ``series`` mul/div/sqrt, how many of those
calls have operands on a common exponent lattice of step >= 2, the largest
input degree seen by ``poly_gcd``, and the hits and misses of the theta
builders' ``lru_cache``.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import math
import sys
import time

THETA_BUILDERS = (
    "psi", "psi_product_form", "phi", "pi_product", "z_series", "m_series",
    "alpha_series", "beta_series", "rho_series",
)


def stride(series) -> int:
    """gcd of the offsets of nonzero coefficients from the valuation (0 for one term)."""
    g = 0
    for i, c in enumerate(series.coeffs):
        if c and i:
            g = math.gcd(g, i)
            if g == 1:
                return 1
    return g


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, parent index, start ns, end ns, overhead ns]
        self.stack: list[int] = []
        self.window: dict[str, int] = {"series.mul": 0, "series.div": 0, "series.sqrt": 0}
        self.strided = 0
        self.stride_ops = 0
        self.gcd_max_degree = 0
        self.caches: list = []

    def wrap(self, name: str, fn, probe=None):
        spans, stack, clock = self.spans, self.stack, time.thread_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            span = [name, stack[-1] if stack else -1, 0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                span[2], span[3] = t1, t2
            if probe is not None:
                probe(name, args, result)
            span[4] = (t1 - t0) + (clock() - t2)
            return result

        return traced

    # -- probes --------------------------------------------------------

    def series_probe(self, name, args, result):
        if result is NotImplemented:
            return
        self.window[name] += result.order - result.valuation
        g = 0
        for operand in args:
            if hasattr(operand, "coeffs"):
                g = math.gcd(g, stride(operand))
        self.stride_ops += 1
        self.strided += g != 1

    def gcd_probe(self, name, args, result):
        self.gcd_max_degree = max(self.gcd_max_degree, *(p.degree for p in args))

    # -- patches, applied right after each module executes ---------------

    def patch(self, module) -> None:
        short = module.__name__.rpartition(".")[2]
        w = self.wrap
        if short == "dsl":
            module.parse = w("dsl.parse", module.parse)
        elif short == "series":
            cls = module.LaurentSeries
            cls.__mul__ = w("series.mul", cls.__mul__, self.series_probe)
            cls.__truediv__ = w("series.div", cls.__truediv__, self.series_probe)
            cls.sqrt = w("series.sqrt", cls.sqrt, self.series_probe)
            cls.__add__ = w("series.add", cls.__add__)
            cls.__radd__ = w("series.add", cls.__radd__)
        elif short == "theta":
            self.caches.append(module.pochhammer)
            module.pochhammer = w("theta.pochhammer", module.pochhammer)
            for fname in THETA_BUILDERS:
                fn = getattr(module, fname)
                self.caches.append(fn)
                setattr(module, fname, w("theta.build", fn))
        elif short == "catalog":
            module.evaluate = w("catalog.evaluate", module.evaluate)
            module.verify_sides = w("catalog.verify", module.verify_sides)
        elif short == "field":
            module.Poly.__divmod__ = w("field.divmod", module.Poly.__divmod__)
            module.poly_gcd = w("field.gcd", module.poly_gcd, self.gcd_probe)
            module.RatFunc.__post_init__ = w("field.ratfunc", module.RatFunc.__post_init__)
            module.QuadExt.inverse = w("field.inverse", module.QuadExt.inverse)
        elif short == "modular":
            for fname in ("build_table3", "build_table5"):
                setattr(module, fname, w("modular.table", getattr(module, fname)))
            for fname in ("prove_degree3", "prove_degree5"):
                setattr(module, fname, w("modular.prove", getattr(module, fname)))
            module.check_param_series = w("modular.param", module.check_param_series)
        elif short == "cli":
            module.main = w("cli.main", module.main)

    # -- reduction -----------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per span name, plus the counters."""
        charged = [0] * len(self.spans)
        for _, parent, start, end, overhead in self.spans:
            if parent >= 0:
                charged[parent] += (end - start) + overhead
        spans: dict[str, list] = {}
        for (name, _, start, end, _), children in zip(self.spans, charged):
            entry = spans.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += (end - start) - children
        hits = sum(fn.cache_info().hits for fn in self.caches)
        misses = sum(fn.cache_info().misses for fn in self.caches)
        return {
            "spans": {name: {"calls": c, "self_ns": ns} for name, (c, ns) in spans.items()},
            "window": self.window,
            "strided": self.strided,
            "stride_ops": self.stride_ops,
            "gcd_max_degree": self.gcd_max_degree,
            "cache_hits": hits,
            "cache_misses": misses,
            "overhead_ns": sum(s[4] for s in self.spans),
        }


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Finds ``piqcheck.*`` modules as usual and patches each once it has run."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith("piqcheck."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        run_module = spec.loader.exec_module

        def exec_module(module):
            run_module(module)
            self.tracer.patch(module)

        spec.loader.exec_module = exec_module
        return spec


def main(argv: list[str]) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    sys.meta_path.insert(0, _PatchingFinder(tracer))
    from piqcheck import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
