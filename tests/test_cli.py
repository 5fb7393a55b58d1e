import ast
import dataclasses
import errno
import functools
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rpca.cli
import rpca.matrixio
from helpers import write_pgm
from rpca.cli import main
from rpca.matrixio import config_from_params, read_matrix_csv, write_matrix_csv
from rpca.solver import SolverConfig, solve
from rpca.sparse import COLUMNWISE_L21
from rpca.surrogates import gamma_surrogate, nuclear_surrogate
from rpca.synthetic import SyntheticSpec, generate_synthetic


def run(*argv):
    return main([str(a) for a in argv])


def test_the_benchmark_names_only_what_the_package_has():
    # perfbench/workloads.py and the benchmark's self-test drive the package
    # through rpca.<name> chains; they are parsed, not imported, so a deleted
    # name fails here
    chains = set()
    for name in ("workloads.py", "selftest.py"):
        tree = ast.parse((Path(__file__).parents[1] / "perfbench" / name).read_text())
        for node in ast.walk(tree):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.insert(0, node.attr)
                node = node.value
            if parts and isinstance(node, ast.Name) and node.id == "rpca":
                chains.add(tuple(parts))
    assert ("cli", "main") in chains and ("linalg", "svd") in chains
    missing = [c for c in chains if functools.reduce(lambda o, a: getattr(o, a, None), c, rpca) is None]
    assert missing == []


def test_every_public_name_has_a_caller_or_is_documented():
    # no public API that only tests call: each name in rpca.__all__ is
    # loaded by a package module other than __init__.py, or README.md names
    # it as library API. Both are parsed, not imported
    root = Path(__file__).parents[1]
    loaded = set()
    for path in (root / "src" / "rpca").glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
    named = set(re.findall(r"\w+", (root / "README.md").read_text()))
    public = {name for name in rpca.__all__ if not name.startswith("__")}
    assert sorted(public - loaded - named) == []


def test_every_module_level_public_name_has_a_caller_or_is_documented():
    # the rule above for every public name, not only rpca.__all__: each
    # module-level def or class of src/rpca without a leading underscore is
    # loaded by some package module, its own included, or README.md names
    # it. Parsed, not imported
    root = Path(__file__).parents[1]
    defined, loaded = set(), set()
    for path in (root / "src" / "rpca").glob("*.py"):
        tree = ast.parse(path.read_text())
        defined |= {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    named = set(re.findall(r"\w+", (root / "README.md").read_text()))
    assert sorted(defined - loaded - named) == []


def test_only_linalg_imports_numbers():
    # linalg.real_number and linalg.integer hold the one rule for a
    # setting's number type; a module that imports numbers is writing
    # another copy of it. Parsed, not imported
    importers = []
    for path in sorted((Path(__file__).parents[1] / "src" / "rpca").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "numbers" in names:
                importers.append(path.name)
    assert [name for name in importers if name != "linalg.py"] == []


def test_the_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency: a module of src/rpca that
    # imports anything else, scipy say, passes wherever that is installed
    # and breaks a clean install. Parsed, not imported
    foreign = []
    for path in sorted((Path(__file__).parents[1] / "src" / "rpca").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"numpy", "rpca"}]
    assert foreign == []


def test_the_l_step_target_enters_a_product_only_through_times():
    # in spectral.py the target is ``a`` or its tall view ``b``. It may
    # enter ``@`` only inside ``_times``, which takes every product with a
    # block in the layout BLAS runs fastest, or as the Gram matrix
    # ``b.T @ b``: a ``b @ q`` written anywhere else fails here. Parsed,
    # not imported
    tree = ast.parse((Path(__file__).parents[1] / "src" / "rpca" / "spectral.py").read_text())
    times = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_times")
    inside = {id(node) for node in ast.walk(times)}
    products = [node for node in ast.walk(tree) if id(node) not in inside
                and isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]
    target = [ast.unparse(node) for node in products
              if {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & {"a", "b"}]
    assert len(products) > len(target) > 0
    assert set(target) == {"b.T @ b"}, target


def test_the_tracer_wraps_no_more_gone_names():
    # perfbench/tracing.py replaces the (module, attribute) pairs of its
    # WRAPPED list for a traced run, and a pair that no longer resolves
    # reads 0 on its per-layer metrics. Four are gone; a fifth fails here,
    # and so does re-pointing one of the four until the set below shrinks.
    # The list is parsed, not imported
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text())
    wrapped = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WRAPPED")
    pairs = [(entry.elts[0].value, entry.elts[1].value) for entry in wrapped.elts]
    assert ("rpca.linalg", "svd") in pairs
    gone = {(module, attr) for module, attr in pairs if not hasattr(importlib.import_module(module), attr)}
    assert gone == {("rpca.solver", "prox_vector_with_iters"), ("rpca.solver", "shrink"),
                    ("rpca.solver", "penalty_value"), ("rpca.cli", "rank_estimate")}


def test_synth_writes_instance(tmp_path):
    assert run("synth", "--m", 12, "--n", 10, "--rank", 2, "--sparsity", 0.1,
               "--seed", 7, "--outdir", tmp_path) == 0
    x = read_matrix_csv(tmp_path / "X.csv")
    l = read_matrix_csv(tmp_path / "L_star.csv")
    s = read_matrix_csv(tmp_path / "S_star.csv")
    assert x.shape == (12, 10)
    assert np.array_equal(x, l + s)
    # without the magnitude and corruption flags the spec takes its defaults
    echo = json.loads((tmp_path / "synth.json").read_text())
    spec = SyntheticSpec(m=12, n=10, rank=2, sparsity=0.1)
    assert echo == {**dataclasses.asdict(spec), "seed": 7}


def test_synth_infinite_magnitude_is_usage_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("synth", "--m", 5, "--n", 4, "--rank", 1, "--sparsity", 0.1,
               "--magnitude-high", "inf", "--outdir", out) == 2
    assert capsys.readouterr().err == "error: magnitude_high must be finite\n"
    assert not out.exists()


# decompose solves at the working scale; anomaly and bench solve on X as given
@pytest.mark.parametrize("argv, expected", [
    (["decompose", "X.csv"], SolverConfig(auto_scale=True)),
    (["bench"], SolverConfig()),
    (["anomaly", "X.csv"], SolverConfig(penalty=COLUMNWISE_L21)),
    (["decompose", "X.csv", "--lambda-policy", "scale"], SolverConfig(lam=1.0 / np.sqrt(30), auto_scale=True)),
    (["decompose", "X.csv", "--lambda", "0.5", "--lambda-policy", "scale"], SolverConfig(lam=0.5, auto_scale=True)),
    (["decompose", "X.csv", "--mu0", "0.01", "--rho", "1.5", "--mu-max", "1e6", "--tol", "1e-5",
      "--max-outer", "20", "--gamma", "0.5"],
     SolverConfig(mu0=0.01, rho=1.5, mu_max=1e6, tol=1e-5, max_outer=20,
                  surrogate=gamma_surrogate(0.5), auto_scale=True)),
    (["bench", "--penalty", "l21"], SolverConfig(penalty=COLUMNWISE_L21)),
    (["anomaly", "X.csv", "--penalty", "l1"], SolverConfig()),
    # gamma is ignored by the nuclear surrogate, even when it is not a number
    (["anomaly", "X.csv", "--surrogate", "nuclear", "--gamma", "nan"],
     SolverConfig(penalty=COLUMNWISE_L21, surrogate=nuclear_surrogate())),
], ids=["decompose", "bench", "anomaly", "lambda-policy-scale", "lambda-over-policy", "plain-flags",
        "penalty-l21", "penalty-l1", "nuclear-nan-gamma"])
def test_stock_solver_flags_give_the_default_config(argv, expected):
    args = rpca.cli.build_parser().parse_args(argv)
    assert rpca.cli._build_config(args, (30, 20)) == expected


@pytest.mark.parametrize("command", ["decompose", "synth", "anomaly", "curve", "bench", "stack"])
def test_every_subcommand_help_renders(capsys, command):
    # argparse %-formats help text, and some of it is built from defaults
    with pytest.raises(SystemExit) as exc:
        run(command, "--help")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: rpca {command}")


def test_decompose_recovers_planted_rank(tmp_path):
    # rank-5 instance decomposed with stock flags
    spec = SyntheticSpec(m=100, n=100, rank=5, sparsity=0.05)
    x, _, _ = generate_synthetic(spec, 0)
    write_matrix_csv(tmp_path / "X.csv", x)
    out = tmp_path / "run"
    assert run("decompose", tmp_path / "X.csv", "--outdir", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["rank_estimate"] == 5
    assert report["final_residual"] <= 1e-3
    assert "dual" in report["kkt"]
    l = read_matrix_csv(out / "L.csv")
    s = read_matrix_csv(out / "S.csv")
    assert np.linalg.norm(x - l - s) / np.linalg.norm(x) <= 1e-3


def test_decompose_writes_the_api_solve_at_the_working_scale(tmp_path):
    x = generate_synthetic(SyntheticSpec(m=80, n=60, rank=3, sparsity=0.05), 2)[0]
    write_matrix_csv(tmp_path / "X.csv", x)
    out = tmp_path / "run"
    assert run("decompose", tmp_path / "X.csv", "--outdir", out) == 0
    cfg = SolverConfig(auto_scale=True)
    result = solve(x, cfg)
    write_matrix_csv(tmp_path / "L_api.csv", result.l)
    write_matrix_csv(tmp_path / "S_api.csv", result.s)
    assert (out / "L.csv").read_bytes() == (tmp_path / "L_api.csv").read_bytes()
    assert (out / "S.csv").read_bytes() == (tmp_path / "S_api.csv").read_bytes()
    report = json.loads((out / "report.json").read_text())
    assert report["scale"] == result.scale == 4.0
    assert report["params"]["auto_scale"] is True
    assert config_from_params(report["params"]) == cfg
    assert report["history"] == [dataclasses.asdict(rec) for rec in result.history]


def test_decompose_missing_input_is_input_error(tmp_path):
    assert run("decompose", tmp_path / "absent.csv") == 3


def test_unknown_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("decompose", tmp_path / "X.csv", "--frobnicate")
    assert exc.value.code == 2


def test_bad_flag_value_is_usage_error(tmp_path):
    spec = SyntheticSpec(m=10, n=10, rank=2, sparsity=0.1)
    x, _, _ = generate_synthetic(spec, 0)
    write_matrix_csv(tmp_path / "X.csv", x)
    assert run("decompose", tmp_path / "X.csv", "--rho", 0.5, "--outdir", tmp_path) == 2


def test_nonconvergence_exit_code_still_writes(tmp_path):
    spec = SyntheticSpec(m=30, n=30, rank=2, sparsity=0.05)
    x, _, _ = generate_synthetic(spec, 1)
    write_matrix_csv(tmp_path / "X.csv", x)
    out = tmp_path / "run"
    assert run("decompose", tmp_path / "X.csv", "--max-outer", 2, "--outdir", out) == 4
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert (out / "L.csv").exists() and (out / "S.csv").exists()


def test_curve_anchor_rows(tmp_path):
    assert run("curve", "--surrogate", "gamma", "--gamma", 0.01,
               "--grid", "0,1,100", "--outdir", tmp_path) == 0
    curve = read_matrix_csv(tmp_path / "curve.csv")
    assert curve[0].tolist() == [0.0, 0.0]
    assert curve[1] == pytest.approx([1.0, 1.0])
    assert curve[2, 1] == pytest.approx(1.0098990100989902)
    meta = json.loads((tmp_path / "curve.json").read_text())
    assert meta["columns"] == ["sigma", "gamma"]


def test_curve_both_surrogates(tmp_path):
    assert run("curve", "--grid", "0,2,5", "--outdir", tmp_path) == 0
    curve = read_matrix_csv(tmp_path / "curve.csv")
    assert curve.shape == (3, 3)
    assert curve[:, 2].tolist() == [0.0, 2.0, 5.0]  # nuclear column is the identity


def test_bench_rank_comparison(tmp_path):
    assert run("bench", "--m", 100, "--n", 100, "--rank", 5, "--sparsity", 0.05,
               "--seed", 0, "--outdir", tmp_path) == 0
    bench = json.loads((tmp_path / "bench.json").read_text())
    runs = bench["runs"]
    assert runs["gamma"]["rank_estimate"] <= runs["nuclear"]["rank_estimate"]
    assert runs["gamma"]["converged"] and runs["nuclear"]["converged"]
    assert runs["nuclear"]["params"]["surrogate"] == {"kind": "nuclear"}
    assert runs["gamma"]["params"]["surrogate"]["gamma"] == 0.01


def test_bench_takes_no_surrogate_flag(tmp_path, capsys):
    # bench runs the gamma and the nuclear penalty itself, so a --surrogate
    # there could only relabel the nuclear run as "gamma"
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        run("bench", "--m", 60, "--n", 60, "--rank", 2, "--surrogate", "nuclear", "--outdir", out)
    assert exc.value.code == 2
    assert "unrecognized arguments: --surrogate" in capsys.readouterr().err
    assert not out.exists()


def test_bench_accepts_input_file(tmp_path):
    spec = SyntheticSpec(m=60, n=60, rank=3, sparsity=0.05)
    x, _, _ = generate_synthetic(spec, 3)
    write_matrix_csv(tmp_path / "X.csv", x)
    assert run("bench", tmp_path / "X.csv", "--mu0", 2e-3, "--outdir", tmp_path) == 0
    bench = json.loads((tmp_path / "bench.json").read_text())
    assert bench["instance"]["source"].endswith("X.csv")
    assert bench["runs"]["gamma"]["rank_estimate"] <= bench["runs"]["nuclear"]["rank_estimate"]


def test_a_raw_solve_that_overflows_writes_no_invalid_json(tmp_path, capsys):
    # every entry is finite, but at this scale the raw solve's figures are
    # not: bench's report would hold Infinity, which JSON has no word for,
    # and anomaly's iterate overflows
    x = np.random.default_rng(0).standard_normal((60, 40)) * 1e200
    np.savetxt(tmp_path / "X.csv", x, fmt="%.17g", delimiter=",")
    assert run("bench", tmp_path / "X.csv", "--outdir", tmp_path / "bench") == 3
    assert run("anomaly", tmp_path / "X.csv", "--outdir", tmp_path / "anomaly") == 2
    err = capsys.readouterr().err.splitlines()
    report = tmp_path / "bench" / "bench.json"
    assert err[-2].startswith(f"error: {report}: not written: ")
    assert not report.exists()
    assert err[-1].startswith("error: an iterate is not finite")
    assert "auto_scale" in err[-1] and not (tmp_path / "anomaly").exists()


def test_anomaly_flags_injected_columns(tmp_path):
    rng = np.random.default_rng(0)
    u1 = np.linalg.qr(rng.standard_normal((100, 3)))[0]
    u2 = np.linalg.qr(rng.standard_normal((100, 3)))[0]
    x = np.hstack([u1 @ rng.standard_normal((3, 190)), u2 @ rng.standard_normal((3, 10))])
    write_matrix_csv(tmp_path / "X.csv", x)
    out = tmp_path / "run"
    assert run("anomaly", tmp_path / "X.csv", "--mu0", 0.05, "--threshold", 0.5,
               "--outdir", out) == 0
    scores = read_matrix_csv(out / "scores.csv")
    assert scores.shape == (200, 1)
    flagged = [int(line) for line in (out / "anomalies.csv").read_text().split()]
    assert flagged == list(range(190, 200))


def test_stack_frames_from_pgm_dir(tmp_path):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    rng = np.random.default_rng(1)
    frames = [rng.uniform(0, 1, (4, 3)) for _ in range(3)]
    for i, f in enumerate(frames):
        write_pgm(frames_dir / f"f{i:02d}.pgm", f, maxval=65535)
    out_csv = tmp_path / "X.csv"
    assert run("stack", frames_dir, "-o", out_csv) == 0
    stacked = read_matrix_csv(out_csv)
    assert stacked.shape == (12, 3)
    for i, f in enumerate(frames):
        assert np.abs(stacked[:, i].reshape((4, 3), order="F") - f).max() <= 1.0 / 65535


def test_stack_empty_dir_is_input_error(tmp_path):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    assert run("stack", frames_dir, "-o", tmp_path / "X.csv") == 3


def test_stack_of_a_file_is_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file.txt").write_text("1,2\n")
    assert run("stack", "file.txt") == 3
    assert capsys.readouterr().err == "error: file.txt is not a directory\n"
    assert not (tmp_path / "X.csv").exists()


def test_stack_frames_of_different_sizes_is_input_error(tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    write_pgm(frames_dir / "f00.pgm", np.zeros((4, 3)))
    write_pgm(frames_dir / "f01.pgm", np.zeros((3, 4)))
    out_csv = tmp_path / "X.csv"
    assert run("stack", frames_dir, "-o", out_csv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {frames_dir / 'f01.pgm'}: frame has shape (3, 4), expected (4, 3)\n"
    assert captured.out == ""
    assert not out_csv.exists()


@pytest.mark.parametrize("data, message", [
    (b"P2 2 1 255\n300 0\n", "sample 1 is 300, outside [0, 255]"),
    (b"P5 2 1 1000\n\x00\x01\xff\xff", "sample 2 is 65535, outside [0, 1000]"),
    # past the float range: named digit for digit, not an OverflowError
    (b"P2 2 1 255\n0 " + b"9" * 400 + b"\n", f"sample 2 is {'9' * 400}, outside [0, 255]"),
], ids=["p2", "p5", "p2-400-digits"])
def test_stack_sample_above_maxval_is_input_error(tmp_path, capsys, data, message):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    write_pgm(frames_dir / "f00.pgm", np.zeros((1, 2)))
    (frames_dir / "f01.pgm").write_bytes(data)
    out_csv = tmp_path / "X.csv"
    assert run("stack", frames_dir, "-o", out_csv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {frames_dir / 'f01.pgm'}: {message}\n"
    assert captured.out == ""
    assert not out_csv.exists()


OUTDIR_COMMANDS = {
    "decompose": ["decompose", "X.csv", "--mu0", "1e-2"],
    "anomaly": ["anomaly", "X.csv", "--mu0", "5e-2"],
    "bench": ["bench", "X.csv", "--mu0", "1e-2"],
    "synth": ["synth", "--m", 10, "--n", 10, "--rank", 2, "--sparsity", 0.1],
    "curve": ["curve", "--grid-points", 5],
}


@pytest.mark.parametrize("argv", list(OUTDIR_COMMANDS.values()), ids=list(OUTDIR_COMMANDS))
def test_outdir_that_is_a_regular_file_is_an_output_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_matrix_csv("X.csv", generate_synthetic(SyntheticSpec(m=10, n=10, rank=2, sparsity=0.1), 0)[0])
    (tmp_path / "out").write_text("a file\n")
    # the output path fails before any solve time is spent
    monkeypatch.setattr(rpca.cli, "solve", lambda *a, **k: pytest.fail("solved before mkdir"))
    assert run(*argv, "--outdir", "out") == 3
    err = capsys.readouterr().err
    assert err == f"error: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: 'out'\n"
    assert (tmp_path / "out").read_text() == "a file\n"


@pytest.mark.parametrize("command", ["decompose", "anomaly", "bench"])
def test_failed_solve_removes_the_outdir_levels_it_made(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    write_matrix_csv("X.csv", generate_synthetic(SyntheticSpec(m=10, n=10, rank=2, sparsity=0.1), 0)[0])
    made = []

    def failing_solve(x, cfg):
        made.append(os.path.isdir("a/b/c"))
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(rpca.cli, "solve", failing_solve)
    assert run(command, "X.csv", "--outdir", "a/b/c") == 2
    assert made == [True]
    assert not os.path.exists("a")
    os.mkdir("a")
    assert run(command, "X.csv", "--outdir", "a/b/c") == 2
    assert os.listdir("a") == []
    assert capsys.readouterr().err == "error: SVD did not converge\n" * 2


def test_unwritable_split_write_is_one_output_error(tmp_path, capsys, monkeypatch):
    # L.csv is written by two processes here; the error is still the parent's own
    monkeypatch.setattr(rpca.matrixio, "FORK_MIN_VALUES", 0)
    monkeypatch.setattr(rpca.matrixio, "_usable_cpus", lambda: 2)
    write_matrix_csv(tmp_path / "X.csv", generate_synthetic(SyntheticSpec(m=10, n=10, rank=2, sparsity=0.1), 0)[0])
    (tmp_path / "out" / "L.csv").mkdir(parents=True)
    assert run("decompose", tmp_path / "X.csv", "--mu0", "1e-2", "--outdir", tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno") and err.count("\n") == 1
    assert "L.csv" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_repeat_runs_are_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        d = tmp_path / name
        assert run("synth", "--m", 40, "--n", 40, "--rank", 2, "--sparsity", 0.05,
                   "--seed", 5, "--outdir", d) == 0
        assert run("decompose", d / "X.csv", "--outdir", d) == 0
        outs.append(d)
    for fname in ("X.csv", "L.csv", "S.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    r0 = json.loads((outs[0] / "report.json").read_text())
    r1 = json.loads((outs[1] / "report.json").read_text())
    assert r0["history"] == r1["history"]


def test_decompose_longer_row_is_input_error(tmp_path, capsys):
    (tmp_path / "X.csv").write_text("1,2,3\n4,5,6\n7,8,9,10\n1,1,1\n")
    assert run("decompose", tmp_path / "X.csv", "--outdir", tmp_path / "run") == 3
    assert "ragged row 3" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_decompose_reads_a_byte_order_mark(tmp_path):
    (tmp_path / "X.csv").write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
    assert run("decompose", tmp_path / "X.csv", "--outdir", tmp_path / "run") == 0
    assert (tmp_path / "run" / "L.csv").exists()


def test_decompose_non_utf8_is_input_error(tmp_path, capsys):
    (tmp_path / "X.csv").write_bytes(b"1,\xff\n")
    out = tmp_path / "run"
    assert run("decompose", tmp_path / "X.csv", "--outdir", out) == 3
    assert capsys.readouterr().err == f"error: {tmp_path / 'X.csv'}: not UTF-8 text (invalid start byte)\n"
    assert not out.exists()


def test_infinite_gamma_is_usage_error(tmp_path, capsys):
    spec = SyntheticSpec(m=10, n=10, rank=2, sparsity=0.1)
    write_matrix_csv(tmp_path / "X.csv", generate_synthetic(spec, 0)[0])
    out = tmp_path / "run"
    assert run("decompose", tmp_path / "X.csv", "--gamma", "inf", "--mu0", "1e-2", "--outdir", out) == 2
    assert capsys.readouterr().err == "error: gamma surrogate requires a finite gamma > 0\n"
    assert not out.exists()


def test_nan_mu_max_is_usage_error(tmp_path, capsys):
    spec = SyntheticSpec(m=10, n=10, rank=2, sparsity=0.1)
    write_matrix_csv(tmp_path / "X.csv", generate_synthetic(spec, 0)[0])
    out = tmp_path / "run"
    assert run("decompose", tmp_path / "X.csv", "--mu-max", "nan", "--outdir", out) == 2
    assert capsys.readouterr().err == "error: mu_max must be >= mu0\n"
    assert not out.exists()


def test_infinite_lambda_is_usage_error_before_any_solve(tmp_path, capsys, monkeypatch):
    spec = SyntheticSpec(m=10, n=10, rank=2, sparsity=0.1)
    write_matrix_csv(tmp_path / "X.csv", generate_synthetic(spec, 0)[0])
    monkeypatch.setattr(rpca.cli, "solve", lambda *a, **k: pytest.fail("solved with lam=inf"))
    out = tmp_path / "run"
    assert run("decompose", tmp_path / "X.csv", "--lambda", "inf", "--outdir", out) == 2
    assert capsys.readouterr().err == "error: lam must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["-1", "nan"])
def test_bad_anomaly_threshold_is_usage_error(tmp_path, capsys, threshold):
    # checked before the input is read: no solve runs and nothing is written
    spec = SyntheticSpec(m=10, n=10, rank=2, sparsity=0.1)
    write_matrix_csv(tmp_path / "X.csv", generate_synthetic(spec, 0)[0])
    out = tmp_path / "run"
    assert run("anomaly", tmp_path / "X.csv", "--threshold", threshold, "--outdir", out) == 2
    assert capsys.readouterr().err == "error: threshold must be nonnegative\n"
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_curve_grid_points_below_one_is_usage_error(tmp_path, capsys, count):
    out = tmp_path / "run"
    assert run("curve", "--grid-points", count, "--outdir", out) == 2
    assert capsys.readouterr().err == "error: --grid-points must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--grid", "0,inf", "--grid values must be finite and nonnegative, got 0,inf"),
        ("--grid", "1,nan,2", "--grid values must be finite and nonnegative, got 1,nan,2"),
        ("--grid", "0,-1", "--grid values must be finite and nonnegative, got 0,-1"),
        ("--grid", "1,x", "--grid values must be finite and nonnegative, got 1,x"),
        ("--grid-max", "nan", "--grid-max must be finite and nonnegative, got nan"),
        ("--grid-max", "inf", "--grid-max must be finite and nonnegative, got inf"),
        ("--grid-max", "-1", "--grid-max must be finite and nonnegative, got -1"),
    ],
)
def test_curve_bad_grid_is_usage_error(tmp_path, capsys, recwarn, flag, value, message):
    # checked before the curve is computed or the directory is made: no
    # warning, one message that names the grid, nothing written
    out = tmp_path / "run"
    assert run("curve", flag, value, "--outdir", out) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert len(recwarn) == 0
    assert not out.exists()


@pytest.mark.parametrize("surrogate, gamma", [
    ("nuclear", "nan"), ("nuclear", "-1"), ("nuclear", "inf"), ("gamma", "0"), ("both", "nan"),
])
def test_curve_bad_gamma_is_usage_error(tmp_path, capsys, surrogate, gamma):
    # curve.json echoes gamma whatever --surrogate is: NaN there is not JSON
    # and -1 is no gamma, so it is checked before the directory is made
    out = tmp_path / "run"
    assert run("curve", "--surrogate", surrogate, "--gamma", gamma, "--outdir", out) == 2
    assert capsys.readouterr().err == "error: gamma surrogate requires a finite gamma > 0\n"
    assert not out.exists()


def test_module_runs_as_a_script(tmp_path):
    # ``python -m rpca.cli`` exits with main's code
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}

    def script(*argv):
        cmd = [sys.executable, "-m", "rpca.cli", *argv]
        return subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True).returncode

    assert script("--help") == 0
    assert script("decompose", "missing.csv") == 3
