"""Spans around the benchmark's calls into qsamp's layers.

Spans are kept in memory as (name, op_index, start, end) tuples and written
out when the run ends.  Every layer span's parent is the op span with the
same index.  Untraced runs call the qsamp functions directly: the wrappers
exist only in a traced run.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter
from types import SimpleNamespace

#: the public functions each op may call, by layer (qsamp module)
LAYER_FUNCTIONS = {
    "generators": ("build_birth_death", "build_general", "build_graph_walk", "build_rho_chain"),
    "spectral": ("amplitude", "dirichlet_eigenpair", "full_spectrum", "quasi_stationary_dist"),
    "bounds": ("exact_bd_amplitude", "graph_bound", "graph_parameters", "path_bound",
               "spectral_bound"),
    "simulate": ("absorption_times", "estimate_ratio", "sandwich_experiment"),
    "bd_infinite": ("eigen_convergence", "entrance_check", "gap_identity_check",
                    "tail_sum_estimate", "theorem_bound"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_index = -1

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        spans = self.spans

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, self.op_index, start, perf_counter()))

        return traced

    def op_span(self, index: int, start: float, end: float) -> None:
        self.spans.append(("op", index, start, end))

    def total_ms(self, prefix: str) -> float:
        """Milliseconds spent in spans whose name starts with prefix."""
        return 1e3 * sum(end - start for name, _, start, end in self.spans
                         if name.startswith(prefix))

    def dump(self) -> list:
        return [{"name": name, "op": op, "parent": None if name == "op" else f"op{op}",
                 "start": start, "end": end} for name, op, start, end in self.spans]


def span_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped call of a no-op function
    minus a direct call, median over repeats."""

    def noop():
        return None

    wrapped = Tracer().wrap("trace", noop)
    costs = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def make_api(tracer: Tracer | None = None) -> SimpleNamespace:
    """qsamp's functions by name, each wrapped in a span when tracing."""
    api = {}
    for layer, names in LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"qsamp.{layer}")
        for name in names:
            fn = getattr(module, name)
            api[name] = fn if tracer is None else tracer.wrap(layer, fn)
    return SimpleNamespace(**api)
