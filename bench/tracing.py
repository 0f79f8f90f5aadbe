"""Span tracing of the library from outside, for the traced benchmark run.

``install`` replaces every public module-level function of the library
with a timing wrapper, under every name a library module (or the package
namespace) looks it up by: ``from .center import solve_lambda`` binds
``tripotential.cli.solve_lambda``, so that binding is wrapped too. The
library's source is not touched.

Spans are kept in flat in-memory arrays (name, op, parent, start, end) and
written out once at the end. A span is recorded only while an op is open,
so the benchmark's own output checks, which call the library as an
oracle, leave no spans.
"""

from __future__ import annotations

import sys
import time
import types
from array import array

import numpy as np

# Public functions whose results carry work counters, and how to read them.
# Each reader gets the tracer and the result (or the raised exception).


def _solve_lambda_result(tracer, result):
    tracer.count("center.solve_lambda.evals", result.iterations)
    tracer.maximum("center.solve_lambda.evals_max", result.iterations)


def _integrate_adaptive_result(tracer, result):
    tracer.count("quadrature.integrate_adaptive.nfev", result.nfev)
    if not result.converged:
        tracer.count("quadrature.integrate_adaptive.unconverged", 1)


def _rp_center_result(tracer, result):
    tracer.count("riesz.rp_center.newton_iters", result.iterations)


def _rp_center_error(tracer, exc):
    # NoConvergence carries the iterations spent before giving up.
    tracer.count("riesz.rp_center.newton_iters", getattr(exc, "iterations", 0))


def _potential_arc_result(tracer, result):
    tracer.count(
        "riesz.potential_arc.unconverged", sum(1 for ap in result if not ap.converged)
    )


RESULT_READERS = {
    "center.solve_lambda": (_solve_lambda_result, None),
    "quadrature.integrate_adaptive": (_integrate_adaptive_result, None),
    "riesz.rp_center": (_rp_center_result, _rp_center_error),
    "riesz.potential_arc": (_potential_arc_result, None),
}

OP_SPAN = "bench.op"


class Tracer:
    """In-memory span recorder plus named work counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_op.append(self.op_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def run_op(self, op_id: int, fn, *args):
        """Run one op as the root span of its own span tree."""
        self.op_id = op_id
        idx = self.open(self.name_id(OP_SPAN))
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self.op_id = -1

    def layer_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self time in seconds per span name.

        Self time is the span's duration minus the durations of its
        direct children.
        """
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(self_s[i]) for i, n in enumerate(self.names)},
        )

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    on_result, on_error = RESULT_READERS.get(name, (None, None))

    def traced(*args, **kwargs):
        if tracer.op_id < 0:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx)
            if on_error is not None:
                on_error(tracer, exc)
            raise
        tracer.close(idx)
        if on_result is not None:
            on_result(tracer, result)
        return result

    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    traced.__doc__ = fn.__doc__
    traced.__wrapped__ = fn
    return traced


def library_modules(package: str = "tripotential") -> list[types.ModuleType]:
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if (key == package or key.startswith(package + ".")) and mod is not None
    ]


def public_functions(package: str = "tripotential") -> dict[object, str]:
    """Map each public module-level function to its ``module.function`` name."""
    found = {}
    for mod in library_modules(package):
        layer = mod.__name__.rpartition(".")[2]
        for attr, value in vars(mod).items():
            if (
                isinstance(value, types.FunctionType)
                and not attr.startswith("_")
                and value.__module__ == mod.__name__
            ):
                found[value] = f"{layer}.{attr}"
    return found


def install(tracer: Tracer, package: str = "tripotential") -> int:
    """Wrap every public function under every library binding of it.

    Returns the number of bindings replaced.
    """
    targets = public_functions(package)
    wrappers = {fn: _wrap(tracer, name, fn) for fn, name in targets.items()}
    replaced = 0
    for mod in library_modules(package):
        namespace = vars(mod)
        for attr, value in list(namespace.items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                namespace[attr] = wrappers[value]
                replaced += 1
    return replaced
