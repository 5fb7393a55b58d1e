import errno
import json
import os

import numpy as np
import pytest

import rpca.cli
import rpca.matrixio
from rpca.cli import main
from rpca.matrixio import read_matrix_csv, write_matrix_csv, write_pgm
from rpca.synthetic import SyntheticSpec, generate_synthetic


def run(*argv):
    return main([str(a) for a in argv])


def test_synth_writes_instance(tmp_path):
    assert run("synth", "--m", 12, "--n", 10, "--rank", 2, "--sparsity", 0.1,
               "--seed", 7, "--outdir", tmp_path) == 0
    x = read_matrix_csv(tmp_path / "X.csv")
    l = read_matrix_csv(tmp_path / "L_star.csv")
    s = read_matrix_csv(tmp_path / "S_star.csv")
    assert x.shape == (12, 10)
    assert np.array_equal(x, l + s)
    echo = json.loads((tmp_path / "synth.json").read_text())
    assert echo["seed"] == 7 and echo["corruption"] == "entrywise"


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


def test_bench_accepts_input_file(tmp_path):
    spec = SyntheticSpec(m=60, n=60, rank=3, sparsity=0.05)
    x, _, _ = generate_synthetic(spec, 3)
    write_matrix_csv(tmp_path / "X.csv", x)
    assert run("bench", tmp_path / "X.csv", "--mu0", 2e-3, "--outdir", tmp_path) == 0
    bench = json.loads((tmp_path / "bench.json").read_text())
    assert bench["instance"]["source"].endswith("X.csv")
    assert bench["runs"]["gamma"]["rank_estimate"] <= bench["runs"]["nuclear"]["rank_estimate"]


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
