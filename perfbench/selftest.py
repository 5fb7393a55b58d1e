"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the recovery check flags a wrong split, that self-time
arithmetic is right on a nested fake call tree, that a missing wrapped name
reads as 0 calls, and that a short pass of every workload, untraced and
traced, runs clean and prints every metric BENCHMARK.json names. Exits 1 on
the first failure. The short passes take about two minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import rpca  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def test_recovery_check_flags_wrong_split():
    x, l_star, s_star = rpca.generate_synthetic(rpca.SyntheticSpec(40, 30, rank=3, sparsity=0.05), 0)
    entrywise = workloads.Instance(x, l_star, s_star, rank=3)
    good = workloads.check(entrywise, workloads.Output(l_star, s_star, True, 1e-3, 1))
    expect(good.passed, f"planted split should pass: {good.reason}")
    # L = 0, S = X is feasible and "converged", so only the recovery check can catch it.
    zero = workloads.check(entrywise, workloads.Output(np.zeros_like(x), x, True, 1e-3, 1))
    expect(zero.valid and not zero.recovered, f"L = 0 should be a recovery miss: {zero}")

    injected = np.arange(25, 30)
    columns = workloads.Instance(x, l_star, s_star, rank=3, injected=injected)
    scores = np.zeros(30)
    scores[injected] = 1.0
    good = workloads.check(columns, workloads.Output(l_star, s_star, True, 1e-3, 1, scores=scores))
    expect(good.passed, f"planted column split should pass: {good.reason}")
    zero = workloads.check(columns, workloads.Output(np.zeros_like(x), x, True, 1e-3, 1,
                                                     scores=np.linalg.norm(x, axis=0)))
    expect(not zero.recovered, "L = 0 should be a recovery miss on the column check")

    nonzero_exit = workloads.check(
        entrywise, workloads.Output(l_star, s_star, True, 1e-3, 1, exit_code=4))
    expect(not nonzero_exit.valid, "a non-zero exit code should make the operation invalid")
    print("ok  recovery check flags a wrong split")


def test_self_times_on_nested_tree():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("a.child", 2.0, 3.0, 1, 0),
        S("b", 5.0, 7.0, 0, 0),
        S("b.x", 5.0, 6.0, 3, 0),   # b.x and b.y overlap on [5.5, 6]:
        S("b.y", 5.5, 6.5, 3, 0),   # the union, 1.5, is what b loses
    ]
    want = [10.0 - 3.0 - 2.0, 3.0 - 1.0, 1.0, 2.0 - 1.5, 1.0, 1.0]
    got = tracing.self_times(spans)
    expect(np.allclose(got, want), f"self times {got} != {want}")
    print("ok  self-time arithmetic on a nested call tree")


def test_wrapping_reports_missing_and_restores():
    tracer = tracing.Tracer()
    original = rpca.linalg.svd
    wrapped = [("rpca.linalg", "svd", "linalg.svd", tracing.WRAPPED[0][3]),
               ("rpca.linalg", "no_such_name", "linalg.gone", None)]
    with tracer.installed(wrapped):
        expect(rpca.linalg.svd is not original, "svd should be wrapped")
        tracer.op = 0
        rpca.linalg.svd(np.eye(3))
        tracer.op = None
        rpca.linalg.svd(np.eye(3))  # outside an operation: not recorded
    expect(rpca.linalg.svd is original, "svd should be restored")
    expect(tracer.missing == ["rpca.linalg.no_such_name"], f"missing {tracer.missing}")
    expect([sp.name for sp in tracer.spans] == ["linalg.svd"], f"spans {tracer.spans}")
    metrics = tracing.layer_metrics(tracer, {"linalg.svd"})
    expect(metrics["linalg.svd.calls"] == 1, f"calls {metrics['linalg.svd.calls']}")
    expect(metrics["matrixio.read_csv.s"] == 0.0, "an uncalled layer should read 0")
    print("ok  wrapping records calls, reports missing names and restores")


def test_short_pass_of_each_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl["name"],
                 "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            label = f"{wl['name']} --trace {trace}"
            expect(proc.returncode == 0, f"{label} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(result["correct"], f"{label} reported correct=false:\n{proc.stderr}")
            expect(result["attempted"] >= 1, f"{label} attempted nothing")
            names = {m["name"]: m["unit"] for m in wanted}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == names, f"{label} metrics {sorted(got)} != {sorted(names)}")
            print(f"ok  short pass {label}: {result['failed']}/{result['attempted']} failed")


def test_fails_without_the_package():
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as bare:
        (Path(bare) / "perfbench").mkdir()
        for f in HERE.glob("*.py"):
            (Path(bare) / "perfbench" / f.name).write_bytes(f.read_bytes())
        (Path(bare) / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "square-1000",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    expect(proc.returncode != 0, "a checkout without src/ should fail")
    expect('"correct"' not in proc.stdout, "a checkout without src/ should print no result")
    print("ok  fails without printing a result when src/ is absent")


if __name__ == "__main__":
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    test_recovery_check_flags_wrong_split()
    test_self_times_on_nested_tree()
    test_wrapping_reports_missing_and_restores()
    test_fails_without_the_package()
    test_short_pass_of_each_workload()
    print("selftest passed")
