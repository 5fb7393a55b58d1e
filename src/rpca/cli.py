"""Command-line front end.

Subcommands: ``decompose`` (CSV in, L/S/report out), ``synth`` (planted
instance generator), ``anomaly`` (decompose + column scores + flagged
indices), ``curve`` (penalty samples for plotting), ``bench`` (gamma vs
nuclear on the same instance), ``stack`` (PGM frame directory to one CSV).

Exit codes: 0 success, 2 usage error, 3 on input or output errors, 4 solver
did not converge (outputs are still written).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .matrixio import (
    MatrixIoError,
    build_report,
    config_from_params,
    read_matrix_csv,
    read_pgm,
    write_json,
    write_matrix_csv,
)
from .solver import SolverConfig, scaled_lambda, solve
from .surrogates import GAMMA, NUCLEAR, RankSurrogate, gamma_surrogate, nuclear_surrogate, scalar_penalty
from .synthetic import (
    COLUMNWISE,
    ENTRYWISE,
    SyntheticSpec,
    anomaly_scores,
    check_threshold,
    detect_anomalies,
    generate_synthetic,
    stack_frames,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NO_CONVERGENCE = 4

_DEFAULTS = SolverConfig()


def _add_solver_flags(
    p: argparse.ArgumentParser, penalty_default: str = "l1", auto_scale: bool = False,
    surrogate_flag: bool = True,
) -> None:
    d = _DEFAULTS
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="sparsity weight (overrides --lambda-policy)")
    p.add_argument("--lambda-policy", choices=["fixed", "scale"], default="fixed",
                   help=f"fixed: {d.lam:g}; scale: 1/sqrt(max(m, n))")
    p.add_argument("--mu0", type=float, default=d.mu0,
                   help=("start penalty weight; with the gamma and l1 penalties its floor, "
                         "the weight being read off X's spectrum" if auto_scale
                         else "initial penalty weight"))
    p.add_argument("--rho", type=float, default=d.rho, help="penalty growth factor (> 1)")
    p.add_argument("--mu-max", type=float, default=d.mu_max, help="penalty weight cap")
    p.add_argument("--gamma", type=float, default=d.surrogate.gamma, help="rank-penalty scale")
    p.add_argument("--tol", type=float, default=d.tol, help="relative-residual stopping tolerance")
    p.add_argument("--max-outer", type=int, default=d.max_outer, help="outer iteration cap")
    p.add_argument("--penalty", choices=["l1", "l21"], default=penalty_default,
                   help="sparsity penalty on S")
    if surrogate_flag:
        p.add_argument("--surrogate", choices=["gamma", "nuclear"], default=d.surrogate.kind,
                       help="rank penalty on L")
    else:
        p.set_defaults(surrogate=GAMMA)  # bench runs the nuclear baseline itself
    # fixed per subcommand, not a flag: decompose solves at the working
    # scale, while anomaly's documented mu0 is tuned for X as given
    p.set_defaults(auto_scale=auto_scale)


def _surrogate(kind: str, gamma: float) -> RankSurrogate:
    return gamma_surrogate(gamma) if kind == GAMMA else nuclear_surrogate()


def _build_config(args, shape: tuple[int, int]) -> SolverConfig:
    if args.lam is not None:
        lam = args.lam
    elif args.lambda_policy == "scale":
        lam = scaled_lambda(*shape)
    else:
        lam = _DEFAULTS.lam
    # the other flags carry the params echo's names; the rest of args is ignored
    surrogate = dataclasses.asdict(_surrogate(args.surrogate, args.gamma))
    return config_from_params({**vars(args), "lambda": lam, "surrogate": surrogate})


@contextlib.contextmanager
def _outdir_made(outdir: Path):
    """Create ``outdir`` and its missing parents before the block runs.

    An output path that cannot be made thus fails before the solve spends
    its time. If the block raises, the levels made here are removed again.
    """
    created = []
    level = outdir
    while level != level.parent and not level.exists():
        created.append(level)
        level = level.parent
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except BaseException:
        for level in created:  # deepest first
            with contextlib.suppress(OSError):
                level.rmdir()
        raise


def _run_and_write(args):
    """Read X, solve it and write L.csv, S.csv and report.json; returns ``(result, outdir)``."""
    x = read_matrix_csv(args.input)
    cfg = _build_config(args, x.shape)
    outdir = Path(args.outdir)
    with _outdir_made(outdir):
        result = solve(x, cfg)
    write_matrix_csv(outdir / "L.csv", result.l)
    write_matrix_csv(outdir / "S.csv", result.s)
    write_json(outdir / "report.json", build_report(cfg, result))
    return result, outdir


def cmd_decompose(args) -> int:
    result, outdir = _run_and_write(args)
    status = "converged" if result.converged else "did NOT converge"
    print(
        f"{status} in {result.iterations} iterations; "
        f"rank estimate {result.history[-1].rank_estimate}; "
        f"final residual {result.history[-1].residual:.3e}; outputs in {outdir}"
    )
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_synth(args) -> int:
    fields = dataclasses.fields(SyntheticSpec)
    spec = SyntheticSpec(**{f.name: getattr(args, f.name) for f in fields})
    x, l_star, s_star = generate_synthetic(spec, args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(outdir / "X.csv", x)
    write_matrix_csv(outdir / "L_star.csv", l_star)
    write_matrix_csv(outdir / "S_star.csv", s_star)
    write_json(outdir / "synth.json", {**dataclasses.asdict(spec), "seed": args.seed})
    print(f"wrote X.csv, L_star.csv, S_star.csv, synth.json to {outdir}")
    return EXIT_OK


def cmd_anomaly(args) -> int:
    check_threshold(args.threshold)
    result, outdir = _run_and_write(args)
    scores = anomaly_scores(result.s)
    flagged = detect_anomalies(scores, args.threshold)
    write_matrix_csv(outdir / "scores.csv", scores[:, None])
    (outdir / "anomalies.csv").write_text("".join(f"{i}\n" for i in flagged))
    print(f"flagged {flagged.size} of {scores.size} columns above threshold {args.threshold}")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _curve_grid(args) -> np.ndarray:
    """The singular values ``curve`` tabulates, checked before anything is computed or written."""
    if args.grid_points < 1:
        raise ValueError("--grid-points must be >= 1")
    if args.grid is not None:
        message = f"--grid values must be finite and nonnegative, got {args.grid}"
        try:
            grid = np.array([float(tok) for tok in args.grid.split(",")])
        except ValueError:
            raise ValueError(message) from None
        if not (np.isfinite(grid).all() and (grid >= 0.0).all()):
            raise ValueError(message)
        return grid
    if not 0.0 <= args.grid_max < np.inf:
        raise ValueError(f"--grid-max must be finite and nonnegative, got {args.grid_max:g}")
    return np.linspace(0.0, args.grid_max, args.grid_points)


def cmd_curve(args) -> int:
    # curve.json echoes gamma whatever --surrogate is, so it is always checked
    gamma_surrogate(args.gamma)
    grid = _curve_grid(args)
    kinds = ["gamma", "nuclear"] if args.surrogate == "both" else [args.surrogate]
    columns = [grid]
    for kind in kinds:
        columns.append(scalar_penalty(grid, _surrogate(kind, args.gamma)))
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(outdir / "curve.csv", np.column_stack(columns))
    write_json(
        outdir / "curve.json",
        {"columns": ["sigma"] + kinds, "gamma": args.gamma, "points": int(grid.size)},
    )
    print(f"wrote {grid.size} samples for {', '.join(kinds)} to {outdir / 'curve.csv'}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.input is not None:
        x = read_matrix_csv(args.input)
        instance: dict = {"source": str(args.input)}
    else:
        spec = SyntheticSpec(m=args.m, n=args.n, rank=args.rank, sparsity=args.sparsity)
        x, _, _ = generate_synthetic(spec, args.seed)
        instance = {"source": "synthetic", **dataclasses.asdict(spec), "seed": args.seed}

    gamma_cfg = _build_config(args, x.shape)
    # The convex baseline needs the dimension-scaled weight to stay away from
    # the trivial L = 0 split; the tiny fixed default only suits the bounded
    # gamma penalty.
    nuclear_lam = args.nuclear_lambda if args.nuclear_lambda is not None else scaled_lambda(*x.shape)
    nuclear_cfg = dataclasses.replace(
        gamma_cfg, lam=nuclear_lam, surrogate=_surrogate(NUCLEAR, args.gamma)
    )

    runs = {}
    all_converged = True
    outdir = Path(args.outdir)
    with _outdir_made(outdir):
        for name, cfg in (("gamma", gamma_cfg), ("nuclear", nuclear_cfg)):
            result = solve(x, cfg)
            report = runs[name] = build_report(cfg, result)
            all_converged = all_converged and result.converged
            print(
                f"{name:8s} rank {report['rank_estimate']:4d}  "
                f"residual {report['final_residual']:.3e}  "
                f"iterations {result.iterations:4d}  time {result.elapsed_seconds:.2f}s"
            )
    write_json(outdir / "bench.json", {"instance": instance, "runs": runs})
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


def cmd_stack(args) -> int:
    frame_dir = Path(args.frames)
    if not frame_dir.is_dir():
        raise MatrixIoError(f"{frame_dir} is not a directory")
    paths = sorted(frame_dir.glob("*.pgm"))
    if not paths:
        raise MatrixIoError(f"no .pgm files in {frame_dir}")
    frames = [read_pgm(p) for p in paths]
    for p, f in zip(paths, frames):
        if f.shape != frames[0].shape:
            raise MatrixIoError(f"{p}: frame has shape {f.shape}, expected {frames[0].shape}")
    stacked = stack_frames(frames)
    write_matrix_csv(args.output, stacked)
    print(f"stacked {len(frames)} frames of shape {frames[0].shape} into {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpca",
        description="Split a matrix into a low-rank part plus a sparse part.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a CSV matrix into L.csv, S.csv, report.json")
    p.add_argument("input", help="input matrix (headerless CSV)")
    p.add_argument("--outdir", default=".", help="output directory")
    _add_solver_flags(p, auto_scale=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("synth", help="generate a planted low-rank + sparse instance")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--sparsity", type=float, required=True)
    p.add_argument("--magnitude-low", type=float, default=SyntheticSpec.magnitude_low)
    p.add_argument("--magnitude-high", type=float, default=SyntheticSpec.magnitude_high)
    p.add_argument("--corruption", choices=[ENTRYWISE, COLUMNWISE], default=SyntheticSpec.corruption)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", default=".", help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("anomaly", help="decompose, then score and flag outlier columns")
    p.add_argument("input", help="input matrix (headerless CSV)")
    p.add_argument("--threshold", type=float, default=0.0,
                   help="flag columns whose S-column norm exceeds this")
    p.add_argument("--outdir", default=".", help="output directory")
    _add_solver_flags(p, penalty_default="l21")
    p.set_defaults(func=cmd_anomaly)

    p = sub.add_parser("curve", help="tabulate the rank penalty over a grid of singular values")
    p.add_argument("--surrogate", choices=["gamma", "nuclear", "both"], default="both")
    p.add_argument("--gamma", type=float, default=_DEFAULTS.surrogate.gamma)
    p.add_argument("--grid", default=None, help="explicit comma-separated grid values")
    p.add_argument("--grid-max", type=float, default=5.0)
    p.add_argument("--grid-points", type=int, default=501)
    p.add_argument("--outdir", default=".", help="output directory")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("bench", help="run the gamma and nuclear penalties on the same instance")
    p.add_argument("input", nargs="?", default=None, help="input matrix CSV (omit to synthesize)")
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--rank", type=int, default=5)
    p.add_argument("--sparsity", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nuclear-lambda", type=float, default=None,
                   help="sparsity weight for the nuclear run (default 1/sqrt(max(m, n)))")
    p.add_argument("--outdir", default=".", help="output directory")
    _add_solver_flags(p, surrogate_flag=False)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stack", help="stack a directory of PGM frames into one CSV matrix")
    p.add_argument("frames", help="directory containing .pgm frames")
    p.add_argument("--output", "-o", default="X.csv", help="output CSV path")
    p.set_defaults(func=cmd_stack)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MatrixIoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
