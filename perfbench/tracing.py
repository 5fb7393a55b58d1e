"""Outside-in tracing of the rpca package.

The package is not instrumented. Instead the tracer replaces, for the length
of a run, the module attributes that the package looks up at call time (for
example ``rpca.solver.shrink``, which ``solve`` resolves on every iteration)
with wrappers that record one span per call. Spans are kept in memory and
written out when the run ends; per-layer metrics are derived from them.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list
    op: int


def _svd_gflop(tracer, args, out):
    # Golub & Van Loan's R-SVD count for the thin factors U1, Sigma, V of an
    # l x k matrix (l >= k): 6 l k^2 + 20 k^3. Computed from the shape, not
    # measured.
    l, k = max(np.shape(args[0])), min(np.shape(args[0]))
    tracer.count("linalg.svd.gflop", (6 * l * k * k + 20 * k ** 3) / 1e9)


def _prox_kept(tracer, args, out):
    sig, dc_iters = out
    tracer.count("surrogates.prox.sv_in", np.size(args[0]))
    tracer.count("surrogates.prox.sv_kept", np.count_nonzero(sig))
    tracer.count("surrogates.prox.dc_iters", dc_iters)


def _solve_iterations(tracer, args, out):
    tracer.count("solver.iterations", out.iterations)


def _file_bytes(key):
    def observe(tracer, args, out):
        tracer.count(key, os.path.getsize(args[0]))
    return observe


# (module, attribute, span name, observer). Each attribute is one the package
# resolves at call time, so replacing it reaches every call site behind it.
WRAPPED = [
    ("rpca.linalg", "svd", "linalg.svd", _svd_gflop),
    ("rpca.solver", "prox_vector_with_iters", "surrogates.prox", _prox_kept),
    ("rpca.solver", "shrink", "sparse.shrink", None),
    ("rpca.solver", "penalty_value", "sparse.penalty_value", None),
    ("rpca.solver", "kkt_residuals", "solver.kkt", None),
    ("rpca", "solve", "solver", _solve_iterations),
    ("rpca.cli", "solve", "solver", _solve_iterations),
    ("rpca.cli", "read_matrix_csv", "matrixio.read_csv", _file_bytes("matrixio.read_csv.bytes")),
    ("rpca.cli", "write_matrix_csv", "matrixio.write_csv", _file_bytes("matrixio.write_csv.bytes")),
    ("rpca.cli", "rank_estimate", "synthetic.rank_estimate", None),
    ("rpca.cli", "build_report", "matrixio.report", None),
    ("rpca.cli", "write_json", "matrixio.report", None),
    ("rpca.cli", "main", "cli", None),
]

# Per-operation self seconds, by span name.
SELF_SECONDS = {
    "linalg.svd": "linalg.svd.s",
    "surrogates.prox": "surrogates.prox.s",
    "sparse.shrink": "sparse.shrink.s",
    "sparse.penalty_value": "sparse.penalty_value.s",
    "solver": "solver.self_s",
    "solver.kkt": "solver.kkt.s",
    "synthetic.rank_estimate": "synthetic.rank_estimate.s",
    "matrixio.read_csv": "matrixio.read_csv.s",
    "matrixio.write_csv": "matrixio.write_csv.s",
    "matrixio.report": "matrixio.report.s",
    "cli": "cli.self_s",
}


class Tracer:
    """Records spans for calls made while an operation id is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op: int | None = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def count(self, key: str, amount: float) -> None:
        self.counts[self.op][key] += amount

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)  # reserve the slot so children can point at it
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)

    def _wrapper(self, original, name, observe):
        def traced(*args, **kwargs):
            if self.op is None:
                return original(*args, **kwargs)
            with self.span(name):
                out = original(*args, **kwargs)
            if observe is not None:
                observe(self, args, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self, wrapped=WRAPPED):
        """Replace each wrapped attribute for the duration of the block.

        A module or attribute that no longer exists is recorded in
        ``missing`` and warned about; its metrics then read 0 calls.
        """
        try:
            for module_name, attr, name, observe in wrapped:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    print(f"warning: {module_name}.{attr} not found; "
                          f"{name} will read 0 calls", file=sys.stderr)
                    continue
                self._installed.append((module, attr, original))
                setattr(module, attr, self._wrapper(original, name, observe))
            yield self
        finally:
            for module, attr, original in reversed(self._installed):
                setattr(module, attr, original)
            self._installed.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered, reach = 0.0, sp.start
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, sp.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((sp.end - sp.start) - covered)
    return out


def layer_metrics(tracer: Tracer, expected: set[str]) -> dict[str, float]:
    """Per-operation layer metrics from the traced operations.

    Seconds and counts are medians over traced operations of each
    operation's total; ratios pool every traced operation. A span name in
    ``expected`` that was never called is reported as 0 with a warning.
    """
    ops = sorted({sp.op for sp in tracer.spans} | set(tracer.counts))
    per_op: dict[int, dict[str, float]] = {op: defaultdict(float) for op in ops}
    for sp, self_s in zip(tracer.spans, self_times(tracer.spans)):
        per_op[sp.op][sp.name + ".calls"] += 1
        per_op[sp.op][SELF_SECONDS[sp.name]] += self_s
    for op, counts in tracer.counts.items():
        per_op[op].update(counts)

    def median(key):
        return float(np.median([per_op[op][key] for op in ops])) if ops else 0.0

    def pooled(num, den):
        n = sum(per_op[op][num] for op in ops)
        d = sum(per_op[op][den] for op in ops)
        return n / d if d > 0 else 0.0

    called = {sp.name for sp in tracer.spans}
    for name in sorted(expected - called):
        print(f"warning: {name} was never called; reporting 0 calls", file=sys.stderr)
    return {
        **{metric: median(metric) for metric in SELF_SECONDS.values()},
        "linalg.svd.calls": median("linalg.svd.calls"),
        "linalg.svd.kept_frac": pooled("surrogates.prox.sv_kept", "surrogates.prox.sv_in"),
        "linalg.svd.gflop_computed": median("linalg.svd.gflop"),
        "surrogates.prox.calls": median("surrogates.prox.calls"),
        "surrogates.prox.dc_iters": median("surrogates.prox.dc_iters"),
        "solver.iterations": median("solver.iterations"),
        "matrixio.read_csv.mb_per_s":
            pooled("matrixio.read_csv.bytes", "matrixio.read_csv.s") / 1e6,
        "matrixio.write_csv.mb_per_s":
            pooled("matrixio.write_csv.bytes", "matrixio.write_csv.s") / 1e6,
    }
