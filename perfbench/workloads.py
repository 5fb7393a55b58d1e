"""The benchmark's workloads and the loop that times them.

A workload turns an instance seed into an instance (``prepare``), runs the
operation a user waits for (``operate``, the only timed part) and gathers
what that operation produced (``outputs``), which ``check`` then compares
with the planted split. ``measure`` repeats this for a run. The package sees
only the generated matrices, or the CSV file written from them. README.md in
this directory says why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import rpca
import rpca.cli

# Recovery thresholds for the entrywise workloads.
MAX_L_ERR = 1e-2
MIN_SUPPORT_F1 = 0.99


@dataclass
class Instance:
    x: np.ndarray
    l_star: np.ndarray
    s_star: np.ndarray
    rank: int
    csv: Path | None = None
    injected: np.ndarray | None = None  # outlier column indices


@dataclass
class Output:
    l: np.ndarray
    s: np.ndarray
    converged: bool
    tol: float
    iterations: int
    exit_code: int = 0
    scores: np.ndarray | None = None


@dataclass
class Outcome:
    """Check result for one operation.

    ``valid``: the program did what it reports. It returned or exited 0,
    converged, wrote readable outputs, and ``L + S`` meets its own residual
    tolerance. ``recovered``: the split matches the planted one. An operation
    fails if either is false.
    """

    valid: bool
    recovered: bool
    quality: dict = field(default_factory=dict)
    reason: str = ""

    @property
    def passed(self) -> bool:
        return self.valid and self.recovered


def check(inst: Instance, out: Output) -> Outcome:
    problems = []
    if out.exit_code != 0:
        problems.append(f"exit code {out.exit_code}")
    if not out.converged:
        problems.append("converged=False")
    residual = float(np.linalg.norm(inst.x - out.l - out.s) / np.linalg.norm(inst.x))
    if not residual <= out.tol:
        problems.append(f"residual {residual:.3e} > tol {out.tol:g}")

    misses = []
    rank = rpca.rank_estimate(out.l)
    l_err, s_err, f1 = rpca.recovery_errors(out.l, inst.l_star, out.s, inst.s_star)
    if rank != inst.rank:
        misses.append(f"rank {rank} != planted {inst.rank}")
    if inst.injected is None:
        if not l_err <= MAX_L_ERR:
            misses.append(f"l_err {l_err:.3e} > {MAX_L_ERR:g}")
        if not f1 >= MIN_SUPPORT_F1:
            misses.append(f"support F1 {f1:.4f} < {MIN_SUPPORT_F1:g}")
    else:
        # "Every injected column ranks in the top len(injected) scores", with
        # a tie against an inlier counted as a miss rather than left to the
        # sort order.
        inliers = np.setdiff1d(np.arange(out.scores.size), inst.injected)
        hidden = np.count_nonzero(out.scores[inst.injected] <= out.scores[inliers].max())
        if hidden:
            misses.append(f"{hidden} injected columns outside the top {inst.injected.size}")
    return Outcome(
        valid=not problems,
        recovered=not misses,
        quality={"rank": rank, "l_err": l_err, "s_err": s_err, "support_f1": f1,
                 "iterations": out.iterations},
        reason="; ".join(problems + misses),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple[int, int]
    prepare: Callable[[int, Path], Instance]
    operate: Callable[[Instance, Path], Any]
    outputs: Callable[[Instance, Any, Path], Output]
    spans: frozenset  # span names the operation must reach
    cycle_s: float  # seconds to prepare, run and check one instance, untraced

    def warmup(self, seed: int) -> None:
        """One thin SVD of the workload's shape, so BLAS threads and the
        allocator are warm before the first timed operation."""
        a = np.random.default_rng(seed).standard_normal(self.shape)
        np.linalg.svd(a, full_matrices=False)


LIBRARY_SPANS = frozenset({"linalg.svd", "surrogates.prox", "sparse.shrink",
                           "sparse.penalty_value", "solver", "solver.kkt"})


def _solver_output(result, tol, scores=None) -> Output:
    return Output(result.l, result.s, result.converged, tol, result.iterations, scores=scores)


# square-1000: the default solve on a large square instance.

SQUARE_SPEC = rpca.SyntheticSpec(1000, 1000, rank=10, sparsity=0.05)


def _square_prepare(seed: int, workdir: Path) -> Instance:
    x, l_star, s_star = rpca.generate_synthetic(SQUARE_SPEC, seed)
    return Instance(x, l_star, s_star, SQUARE_SPEC.rank)


def _square_operate(inst: Instance, workdir: Path):
    return rpca.solve(inst.x)


def _square_outputs(inst: Instance, result, workdir: Path) -> Output:
    return _solver_output(result, rpca.SolverConfig().tol)


# cli-tall: `rpca decompose` from a CSV file to L.csv, S.csv and report.json.

TALL_SPEC = rpca.SyntheticSpec(2000, 400, rank=5, sparsity=0.05)


def _tall_prepare(seed: int, workdir: Path) -> Instance:
    x, l_star, s_star = rpca.generate_synthetic(TALL_SPEC, seed)
    csv = workdir / "X.csv"
    # Written by numpy, not by the package, so set-up does not move with
    # the package's CSV writer.
    np.savetxt(csv, x, fmt="%.17g", delimiter=",")
    return Instance(x, l_star, s_star, TALL_SPEC.rank, csv=csv)


def _tall_operate(inst: Instance, workdir: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return rpca.cli.main(["decompose", str(inst.csv), "--outdir", str(workdir / "out")])


def _tall_outputs(inst: Instance, exit_code: int, workdir: Path) -> Output:
    """Read the written files back, then delete them so that the next
    operation cannot pass on a stale copy."""
    outdir = workdir / "out"
    try:
        report = json.loads((outdir / "report.json").read_text())
        return Output(
            l=np.loadtxt(outdir / "L.csv", delimiter=",", ndmin=2),
            s=np.loadtxt(outdir / "S.csv", delimiter=",", ndmin=2),
            converged=report["converged"],
            tol=report["params"]["tol"],
            iterations=report["iterations"],
            exit_code=exit_code,
        )
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


# column-outliers: l2,1 solve plus anomaly scores on a wide matrix whose
# last 200 columns come from a second rank-3 subspace (C09 scaled up).

COLUMNS_CFG = rpca.SolverConfig(mu0=0.005, penalty=rpca.COLUMNWISE_L21)
COLUMNS_INLIERS, COLUMNS_OUTLIERS, COLUMNS_ROWS, COLUMNS_RANK = 3800, 200, 500, 3


def _columns_prepare(seed: int, workdir: Path) -> Instance:
    """Inlier coefficients are Gaussian. Outlier coefficients are Gaussian
    directions scaled to norm sqrt(rank), the Gaussian's RMS norm, so the
    outlier block keeps its singular values of about 15. Unscaled Gaussian
    draws give about one instance in a hundred an "outlier" column of norm
    below 0.06, under the solver's residual budget ``tol * ||X||_F`` of
    about 0.11. No solve stopped at that tolerance can tell it apart.
    """
    rng = np.random.default_rng(seed)
    u1 = np.linalg.qr(rng.standard_normal((COLUMNS_ROWS, COLUMNS_RANK)))[0]
    u2 = np.linalg.qr(rng.standard_normal((COLUMNS_ROWS, COLUMNS_RANK)))[0]
    c2 = rng.standard_normal((COLUMNS_RANK, COLUMNS_OUTLIERS))
    c2 *= np.sqrt(COLUMNS_RANK) / np.linalg.norm(c2, axis=0)
    l_star = np.hstack([u1 @ rng.standard_normal((COLUMNS_RANK, COLUMNS_INLIERS)),
                        np.zeros((COLUMNS_ROWS, COLUMNS_OUTLIERS))])
    s_star = np.hstack([np.zeros((COLUMNS_ROWS, COLUMNS_INLIERS)), u2 @ c2])
    injected = np.arange(COLUMNS_INLIERS, COLUMNS_INLIERS + COLUMNS_OUTLIERS)
    return Instance(l_star + s_star, l_star, s_star, COLUMNS_RANK, injected=injected)


def _columns_operate(inst: Instance, workdir: Path):
    result = rpca.solve(inst.x, COLUMNS_CFG)
    return result, rpca.anomaly_scores(result.s)


def _columns_outputs(inst: Instance, raw, workdir: Path) -> Output:
    result, scores = raw
    return _solver_output(result, COLUMNS_CFG.tol, scores)


# cycle_s is the median seconds of one untraced prepare + operate + check
# cycle on a 2-core box (numpy 2.4, OpenBLAS 0.3.31, 2 BLAS threads). It
# fixes how many instances a run holds; see instance_count.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("square-1000", (1000, 1000), _square_prepare, _square_operate,
                 _square_outputs, LIBRARY_SPANS, 9.0),
        Workload("cli-tall", (2000, 400), _tall_prepare, _tall_operate, _tall_outputs,
                 LIBRARY_SPANS | {"cli", "matrixio.read_csv", "matrixio.write_csv",
                                  "matrixio.report", "synthetic.rank_estimate"}, 9.0),
        Workload("column-outliers", (COLUMNS_ROWS, COLUMNS_INLIERS + COLUMNS_OUTLIERS),
                 _columns_prepare, _columns_operate, _columns_outputs, LIBRARY_SPANS, 2.7),
    )
}


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def run_op(wl: Workload, inst: Instance, workdir: Path, tracer, op_id: int) -> dict:
    """Time one operation, then check it outside the timed window.

    An exception counts as a failed operation; the run goes on.
    """
    if tracer is not None:
        tracer.op = op_id
    failure = None
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        raw = wl.operate(inst, workdir)
    except Exception:
        failure = traceback.format_exc()
    op_s, cpu_s = time.perf_counter() - t0, cpu_seconds() - cpu0
    if tracer is not None:
        tracer.op = None
    if failure is None:
        try:
            outcome = check(inst, wl.outputs(inst, raw, workdir))
        except Exception:
            failure = traceback.format_exc()
    if failure is not None:
        print(failure, file=sys.stderr)
        outcome = Outcome(valid=False, recovered=False, reason=failure.strip().splitlines()[-1])
    return {"op": op_id, "traced": tracer is not None, "op_s": op_s, "cpu_s": cpu_s,
            "passed": outcome.passed, **asdict(outcome)}


SLOW_STOP, SLOW_STOP_MAX_S = 2.5, 120.0


def instance_count(wl: Workload, seconds: float, traced: bool) -> int:
    """Instances in a run: as many nominal cycles as fit in ``seconds``.

    The count depends only on the workload and ``seconds``, not on how fast
    the machine happens to be, so the same seed always runs, and fails on,
    the same instances.
    """
    return max(1, int(seconds / (wl.cycle_s * (2 if traced else 1))))


def measure(wl: Workload, seed: int, seconds: float, tracer, workdir: Path):
    """Prepare and run ``instance_count`` instances, one after another.

    Instance ``i`` of a run is generated from seed ``1000 * seed + i``. With
    a tracer each instance runs twice, untraced and then traced. A run on a
    machine far slower than the nominal cycle stops early, after
    ``SLOW_STOP`` times ``seconds`` (at most ``SLOW_STOP_MAX_S``), so that it
    still ends in bounded time. Returns the per-operation rows, the
    per-instance set-up seconds and the per-instance cycle seconds.
    """
    ops, prep_s, cycles = [], [], []
    limit = min(SLOW_STOP * seconds, SLOW_STOP_MAX_S)
    start = time.perf_counter()
    for i in range(instance_count(wl, seconds, tracer is not None)):
        c0 = time.perf_counter()
        if c0 - start + (statistics.fmean(cycles) if cycles else 0.0) > limit:
            print(f"warning: stopped after {i} instances; the machine is far "
                  f"slower than the nominal {wl.cycle_s} s cycle", file=sys.stderr)
            break
        inst = wl.prepare(1000 * seed + i, workdir)
        prep_s.append(time.perf_counter() - c0)
        for t in (None, tracer) if tracer is not None else (None,):
            ops.append(run_op(wl, inst, workdir, t, len(ops)))
        cycles.append(time.perf_counter() - c0)
    return ops, prep_s, cycles
