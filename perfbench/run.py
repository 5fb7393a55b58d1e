"""Benchmark of the rpca package: time to a checked split, end to end.

    python3 perfbench/run.py --workload square-1000 --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One process runs one workload, one operation at a time, for about
``--seconds`` seconds, and prints a run record and then, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs each instance once untraced and once traced and reports
the per-layer metrics. Full per-operation rows (and the spans, when traced)
are written to ``.perfbench_out/``. README.md in this directory explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> tuple[int, int]:
    """Cap the BLAS thread count at the usable cores; call before numpy loads.

    Returns ``(nproc, threads)``.
    """
    nproc = len(os.sched_getaffinity(0))
    try:
        want = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        want = nproc
    threads = max(1, min(want, nproc))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return nproc, threads


def source_identity() -> dict:
    """The commit, when the checkout is a git work tree, and a digest of src/."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[len("ref: "):] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name"), "version": blas.get("version")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc, threads = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import numpy as np
    import rpca  # noqa: F401
    import rpca.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS[args.workload]
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_info(np),
        "blas_threads": threads, "nproc": nproc, **source_identity(),
    }
    print(json.dumps({"run_record": record}), flush=True)

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        t0 = time.perf_counter()
        wl.warmup(args.seed)
        warmup_s = time.perf_counter() - t0
        with tracer.installed() if tracer else contextlib.nullcontext():
            ops, prep_s, cycles = workloads.measure(wl, args.seed, args.seconds, tracer,
                                                    workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not o["passed"] for o in ops)
    if tracer is None:
        values = {
            "op_s": statistics.median(o["op_s"] for o in ops),
            "setup_s": import_s + warmup_s + statistics.median(prep_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    else:
        plain = [o for o in ops if not o["traced"]]
        traced = [o for o in ops if o["traced"]]

        def quality(key):
            checked = [o["quality"][key] for o in ops if o["quality"]]
            return statistics.median(checked) if checked else 0.0

        values = {
            **tracing.layer_metrics(tracer, wl.spans),
            **{f"synthetic.{k}": quality(k) for k in ("rank", "l_err", "s_err", "support_f1")},
            "process.cpu_s": statistics.median(o["cpu_s"] for o in plain),
            "trace.overhead_frac": statistics.median(o["op_s"] for o in traced)
            / statistics.median(o["op_s"] for o in plain) - 1.0,
            "fail_frac": failed / len(ops),
        }
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    OUT.mkdir(exist_ok=True)
    detail = {"run_record": record, "import_s": import_s, "warmup_s": warmup_s,
              "prepare_s": prep_s, "cycle_s": cycles, "ops": ops, "metrics": metrics}
    if tracer is not None:
        detail["missing_names"] = tracer.missing
        detail["spans"] = [asdict(sp) for sp in tracer.spans]
    out_file = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1) + "\n")

    print(json.dumps({
        "correct": all(o["valid"] for o in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
