import json
import os
import signal
import warnings

import numpy as np
import pytest

import rpca.matrixio
from helpers import reference_write_matrix_csv
from rpca.matrixio import (
    MatrixIoError,
    build_report,
    config_from_params,
    config_to_params,
    read_matrix_csv,
    read_pgm,
    write_json,
    write_matrix_csv,
    write_pgm,
)
from rpca.solver import SolverConfig, solve
from rpca.sparse import COLUMNWISE_L21
from rpca.surrogates import nuclear_surrogate
from rpca.synthetic import rank_estimate


def test_read_matrix_csv_basic(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4\n")
    assert np.array_equal(read_matrix_csv(p), np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_read_matrix_csv_ragged_names_row(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(MatrixIoError, match="row 2"):
        read_matrix_csv(p)


def test_read_matrix_csv_bad_token_names_position(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,x\n")
    with pytest.raises(MatrixIoError, match="row 2, column 2"):
        read_matrix_csv(p)


def test_read_matrix_csv_rejects_non_finite(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,nan\n2,3\n")
    with pytest.raises(MatrixIoError, match="non-finite"):
        read_matrix_csv(p)
    p.write_text("1,inf\n2,3\n")
    with pytest.raises(MatrixIoError, match="non-finite"):
        read_matrix_csv(p)


def test_read_matrix_csv_missing_file(tmp_path):
    with pytest.raises(MatrixIoError, match="cannot read"):
        read_matrix_csv(tmp_path / "absent.csv")


def test_read_matrix_csv_empty(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("")
    with pytest.raises(MatrixIoError, match="no rows"):
        read_matrix_csv(p)


def read_error(path) -> str:
    with pytest.raises(MatrixIoError) as exc:
        read_matrix_csv(path)
    return str(exc.value)


def test_read_matrix_csv_longer_row_is_ragged(tmp_path):
    # a row longer than the first must be rejected, not cut to the first's width
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4,5\n6,7\n")
    assert read_error(p) == f"{p}: ragged row 2 has 3 fields, expected 2"


def test_read_matrix_csv_inner_blank_line(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n\n3,4\n")
    assert read_error(p) == f"{p}: ragged row 2 has 1 fields, expected 2"
    p.write_text("1\n\n2\n")
    assert read_error(p) == f"{p}: row 2, column 1: not a number: ''"


def test_read_matrix_csv_bad_token_deep_in_file(tmp_path):
    rows = [",".join(["1.5"] * 8)] * 2000
    rows[1499] = "1.5,1.5,1.5,1.5,1.5,1.5,oops,1.5"
    p = tmp_path / "m.csv"
    p.write_text("\n".join(rows) + "\n")
    assert read_error(p) == f"{p}: row 1500, column 7: not a number: 'oops'"


def test_read_matrix_csv_overflow_is_non_finite(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,1e999\n")
    assert read_error(p) == f"{p}: row 2, column 2: non-finite value '1e999'"


def test_read_matrix_csv_reports_first_error_in_file_order(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,x\n5,6,7\n")
    assert read_error(p) == f"{p}: row 2, column 2: not a number: 'x'"
    p.write_text("1,2\n3,-inf\n5\n")
    assert read_error(p) == f"{p}: row 2, column 2: non-finite value '-inf'"
    p.write_text("1,2\n3,4,5\nx,6\n")
    assert read_error(p) == f"{p}: ragged row 2 has 3 fields, expected 2"


def test_read_matrix_csv_accepts_float_tokens(tmp_path):
    # every field is one Python float token: padding, CRLF and digit
    # separators are accepted, as is one trailing blank line
    p = tmp_path / "m.csv"
    p.write_bytes(b" 3 ,4\r\n1_0,\t-0\r\n")
    back = read_matrix_csv(p)
    assert back.tolist() == [[3.0, 4.0], [10.0, 0.0]]
    assert np.signbit(back[1, 1])
    p.write_text("1e-320,2\n")
    assert read_matrix_csv(p)[0, 0] == 1e-320


def test_read_matrix_csv_skips_a_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(b"1,2\n3,4\n")
    marked.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
    assert np.array_equal(read_matrix_csv(marked), read_matrix_csv(plain))


def test_read_matrix_csv_rejects_a_byte_order_mark_inside(tmp_path):
    p = tmp_path / "m.csv"
    p.write_bytes(b"1,2\n\xef\xbb\xbf3,4\n")
    assert read_error(p) == f"{p}: row 2, column 1: not a number: '\\ufeff3'"


def test_read_matrix_csv_rejects_non_utf8(tmp_path):
    p = tmp_path / "m.csv"
    p.write_bytes(b"1,\xff\n")
    assert read_error(p) == f"{p}: not UTF-8 text (invalid start byte)"


def test_write_matrix_csv_matches_reference_bytes(tmp_path):
    rng = np.random.default_rng(4)
    m = rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-300, 300, (6, 5))
    m[0] = [-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308]
    m[1, :3] = [-1.7976931348623157e308, 0.1, -1e16]
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_matrix_csv(ours, m)
    reference_write_matrix_csv(ref, m)
    assert ours.read_bytes() == ref.read_bytes()
    assert read_matrix_csv(ours).tobytes() == m.tobytes()
    for shape in [(0, 3), (3, 0), (0, 0)]:
        write_matrix_csv(ours, np.zeros(shape))
        reference_write_matrix_csv(ref, np.zeros(shape))
        assert ours.read_bytes() == ref.read_bytes(), shape
    assert ours.read_bytes() == b"\n"


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-8, 8, (7, 3))
    p = tmp_path / "m.csv"
    write_matrix_csv(p, m)
    back = read_matrix_csv(p)
    assert np.array_equal(back, m)


def test_csv_write_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 4))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_matrix_csv(p1, m)
    write_matrix_csv(p2, m)
    assert p1.read_bytes() == p2.read_bytes()


# Inputs the C parser and the token parser could read differently. Each
# must give the same float64 bits, or the same error text, on both paths.
READER_TABLE = {
    "plain": "1,2\n3,4\n",
    "padded": " 3 ,4\r\n\t-0,\t2\t\n",
    "signed zeros": "-0.0,0\n+0,-0\n",
    "subnormal": "1e-320,5e-324\n",
    "underscores": "1_0,2\n3,4\n",
    "double underscore": "1__0,2\n",
    "arabic-indic digit": "\u0661,2\n",
    "fullwidth digit": "\uff11,2\n",
    "unicode spaces": "\u2003 1,\u00a02\u3000\n",
    "unit separator": "1\x1f,2\n",
    "inner space": "1 2,3\n",
    "hex": "0x10,1\n",
    "nul": "1\x00,2\n",
    "inf": "inf,1\n",
    "minus infinity": "1,-Infinity\n",
    "nan": "1,nan\n",
    "overflow": "1e400,1\n",
    "trailing comma": "1,2,\n",
    "blank line inside": "1,2\n\n3,4\n",
    "blank line inside one column": "1\n\n2\n",
    "one blank line": "\n\n",
    "one space line": " \n",
    "two trailing blank lines": "1,2\n\n\n",
    "no final newline": "1,2\n3,4",
    "byte-order mark": "\ufeff1,2\n3,4\n",
    "byte-order mark inside": "1,2\n\ufeff3,4\n",
    "crlf": "1,2\r\n3,4\r\n",
    "form feed break": "1,2\x0c3,4\n",
    "vertical tab break": "1,2\x0b3,4\n",
    "next-line break": "1,2\x853,4\n",
    "one column": "1\n2\n3\n",
    "one row": "1,2,3\n",
    "one value": "5",
    "ragged short": "1,2\n3\n",
    "ragged long": "1,2\n3,4,5\n",
}


def read_outcome(path):
    """``("ok", shape, bytes)`` or ``("error", message)``, with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            m = read_matrix_csv(path)
        except MatrixIoError as exc:
            return ("error", str(exc))
    assert m.dtype == np.float64 and m.flags.c_contiguous
    return ("ok", m.shape, m.tobytes())


@pytest.mark.parametrize("text", list(READER_TABLE.values()), ids=list(READER_TABLE))
def test_read_matrix_csv_paths_agree(tmp_path, monkeypatch, text):
    p = tmp_path / "m.csv"
    p.write_bytes(text.encode("utf-8"))
    fast = read_outcome(p)

    def refuse(*args, **kwargs):
        raise ValueError("C parser switched off")

    monkeypatch.setattr(np, "loadtxt", refuse)
    assert fast == read_outcome(p)  # every line through _parse_rows


def test_read_matrix_csv_common_files_skip_the_token_parser(tmp_path, monkeypatch):
    def refuse(path, lines):
        raise AssertionError("fell back to the token parser")

    monkeypatch.setattr(rpca.matrixio, "_parse_rows", refuse)
    p = tmp_path / "m.csv"
    for text in ("1", "1,2,3\n", "1\n2\n", "\ufeff 3 ,-0\r\n1e-320,\t4\r\n\n"):
        p.write_bytes(text.encode("utf-8"))
        read_matrix_csv(p)


def forced_split(monkeypatch):
    """Split every write with at least two rows; count the children started."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(rpca.matrixio, "FORK_MIN_VALUES", 0)
    monkeypatch.setattr(rpca.matrixio, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# (2, 5000) and (3, 3000) rows are wider than the 64 KiB copy chunk
@pytest.mark.parametrize("shape", [(0, 3), (1, 3), (2, 3), (5, 3), (7, 1), (2, 5000), (3, 3000)])
def test_write_matrix_csv_split_matches_reference_bytes(tmp_path, monkeypatch, shape):
    forks = forced_split(monkeypatch)
    m = np.random.default_rng(5).standard_normal(shape) * 1e-3
    ours, ref = tmp_path / "out" / "ours.csv", tmp_path / "ref.csv"
    ours.parent.mkdir()
    write_matrix_csv(ours, m)
    reference_write_matrix_csv(ref, m)
    assert ours.read_bytes() == ref.read_bytes()
    assert len(forks) == (shape[0] >= 2)
    assert_no_child_left()
    assert [q.name for q in ours.parent.iterdir()] == ["ours.csv"]  # no temp file


@pytest.mark.parametrize("failure", ["exit", "signal"])
def test_write_matrix_csv_formats_a_failed_childs_rows_itself(tmp_path, monkeypatch, capfd, failure):
    forks = forced_split(monkeypatch)
    parent = os.getpid()
    write_rows = rpca.matrixio._write_rows

    def failing_in_child(f, rows, row_format):
        if os.getpid() != parent:
            if failure == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("child failed")
        write_rows(f, rows, row_format)

    monkeypatch.setattr(rpca.matrixio, "_write_rows", failing_in_child)
    m = np.random.default_rng(6).standard_normal((9, 4))
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_matrix_csv(ours, m)
    reference_write_matrix_csv(ref, m)
    assert ours.read_bytes() == ref.read_bytes()
    assert len(forks) == 1
    assert_no_child_left()
    assert capfd.readouterr().err == ""


def test_write_matrix_csv_with_sigchld_ignored(tmp_path, monkeypatch):
    # a host that ignores SIGCHLD has its children reaped for it, so the
    # child's status is lost: the parent formats the rows itself
    forks = forced_split(monkeypatch)
    m = np.random.default_rng(8).standard_normal((6, 3))
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    reference_write_matrix_csv(ref, m)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        write_matrix_csv(ours, m)
        with pytest.raises(IsADirectoryError):
            write_matrix_csv(tmp_path, m)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert ours.read_bytes() == ref.read_bytes()
    assert len(forks) == 2
    assert_no_child_left()


def test_write_matrix_csv_writes_alone_when_fork_fails(tmp_path, monkeypatch):
    def no_fork():
        raise OSError("fork refused")

    forced_split(monkeypatch)
    monkeypatch.setattr(os, "fork", no_fork)
    m = np.random.default_rng(7).standard_normal((4, 4))
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_matrix_csv(ours, m)
    reference_write_matrix_csv(ref, m)
    assert ours.read_bytes() == ref.read_bytes()


def test_write_matrix_csv_unwritable_destination_reaps_the_child(tmp_path, monkeypatch):
    forks = forced_split(monkeypatch)
    with pytest.raises(IsADirectoryError):
        write_matrix_csv(tmp_path, np.ones((6, 6)))
    assert len(forks) == 1
    assert_no_child_left()


def test_read_pgm_ascii(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 255\n255 0\n")
    img = read_pgm(p)
    assert np.array_equal(img, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_read_pgm_handles_comments(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P2\n# a comment\n2 1\n255\n128 255\n")
    img = read_pgm(p)
    assert img[0, 0] == pytest.approx(128 / 255)


def test_pgm_binary_and_ascii_agree(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.uniform(0.0, 1.0, (5, 7))
    pa = tmp_path / "a.pgm"
    pb = tmp_path / "b.pgm"
    write_pgm(pa, img, binary=False)
    write_pgm(pb, img, binary=True)
    assert np.array_equal(read_pgm(pa), read_pgm(pb))


def test_pgm_sixteen_bit(tmp_path):
    img = np.array([[0.0, 0.5], [1.0, 0.25]])
    p = tmp_path / "img.pgm"
    write_pgm(p, img, maxval=65535)
    back = read_pgm(p)
    assert np.abs(back - img).max() <= 1.0 / 65535


def test_pgm_rejects_other_magic(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(MatrixIoError, match="P3"):
        read_pgm(p)


def test_pgm_truncated_payload(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(MatrixIoError, match="truncated"):
        read_pgm(p)


def test_pgm_oversized_maxval(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P2\n1 1\n70000\n0\n")
    with pytest.raises(MatrixIoError, match="out of range"):
        read_pgm(p)


def test_config_params_round_trip():
    cfg = SolverConfig(lam=0.05, mu0=2e-3, rho=1.2, tol=1e-4, max_outer=77,
                       surrogate=nuclear_surrogate(), penalty=COLUMNWISE_L21)
    assert config_from_params(config_to_params(cfg)) == cfg
    cfg2 = SolverConfig()
    assert config_from_params(config_to_params(cfg2, seed=3)) == cfg2


def test_config_from_params_ignores_the_old_dc_echo():
    # reports written before the gamma prox had a closed form echo the
    # settings of its inner loop under "dc"
    cfg = SolverConfig(mu0=2e-3, penalty=COLUMNWISE_L21)
    params = config_to_params(cfg, seed=3)
    assert "dc" not in params
    params["dc"] = {"max_inner": 30, "tol": 1e-10}
    assert config_from_params(params) == cfg


def test_report_fields_and_rerun(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 20))
    cfg = SolverConfig(mu0=1e-2)
    result = solve(x, cfg)
    report = build_report(cfg, result, seed=None)
    assert report["converged"] is True
    # the report's rank is the last iteration's record, which agrees with an
    # SVD of the final L; this planted rank-4 input comes back at rank 3
    # under mu0=1e-2
    assert report["rank_estimate"] == rank_estimate(result.l) == 3
    assert set(report["kkt"]) == {"primal", "dual"}
    assert len(report["history"]) == report["iterations"]
    for rec in report["history"]:
        assert {"iter", "residual", "lagrangian", "rank_estimate",
                "y_inf_norm", "mu", "mu_s_change", "l_route"} == set(rec)
        assert rec["l_route"] in {"low_rank", "gram", "svd"}
    # the params echo is enough to reproduce the run
    rerun = solve(x, config_from_params(report["params"]))
    assert [r.residual for r in rerun.history] == [r.residual for r in result.history]
    assert [r.lagrangian for r in rerun.history] == [r.lagrangian for r in result.history]
    out = tmp_path / "report.json"
    write_json(out, report)
    assert json.loads(out.read_text())["iterations"] == result.iterations
