import dataclasses
import json
import os
import signal
import warnings

import numpy as np
import pytest

import rpca.matrixio
from helpers import reference_write_matrix_csv, traced_peak, write_pgm
from rpca.matrixio import (
    MatrixIoError,
    build_report,
    config_from_params,
    config_to_params,
    read_matrix_csv,
    read_pgm,
    write_json,
    write_matrix_csv,
)
from rpca.solver import SolverConfig, solve
from rpca.sparse import COLUMNWISE_L21
from rpca.surrogates import gamma_surrogate, nuclear_surrogate
from rpca.synthetic import SyntheticSpec, generate_synthetic, rank_estimate


def test_read_matrix_csv_basic(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4\n")
    assert np.array_equal(read_matrix_csv(p), np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_read_matrix_csv_holds_at_most_2_2_times_the_file(tmp_path):
    # the decoded text is let go once it is split into lines, so the parse
    # holds the lines, np.loadtxt's work and the matrix: 2.01 times the
    # bytes of this 2000x400 file of %.17g values (2.48 with the text kept)
    x = generate_synthetic(SyntheticSpec(2000, 400, rank=5, sparsity=0.05), 0)[0]
    path = tmp_path / "x.csv"
    write_matrix_csv(path, x)
    size = path.stat().st_size
    m, peak = traced_peak(read_matrix_csv, path)
    assert np.array_equal(m, x)
    assert peak <= 2.2 * size, peak / size


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


def test_read_matrix_csv_names_a_non_finite_value_without_the_token_parser(tmp_path, monkeypatch):
    # np.loadtxt read every line, so the first non-finite value in row-major
    # order is named from its own line, with the token parser's message
    def refuse(path, lines):
        raise AssertionError("fell back to the token parser")

    monkeypatch.setattr(rpca.matrixio, "_parse_rows", refuse)
    p = tmp_path / "m.csv"
    p.write_text("1,2,3\n4,5, -inf \n1e400,8,nan\n")
    with pytest.raises(MatrixIoError) as exc:
        read_matrix_csv(p)
    assert str(exc.value) == f"{p}: row 2, column 3: non-finite value ' -inf '"


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


# What may separate two PGM tokens: the six ASCII whitespace bytes, CRLF,
# and comments that end in LF or CR, with or without whitespace before them
PGM_SEPARATORS = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n", b"# c\n", b"#x\r", b" # s\n"]


def test_read_pgm_token_grammar(tmp_path):
    # a comment glued straight after a token ends it (12#c\n34 is 12, 34),
    # in the header and in the raster alike
    rng = np.random.default_rng(18)
    p = tmp_path / "img.pgm"
    for _ in range(200):
        h, w = (int(v) for v in rng.integers(1, 5, size=2))
        maxval = int(rng.choice([1, 255, 1000, 65535]))
        samples = rng.integers(0, maxval + 1, size=h * w)
        fields = [b"P2", *(str(v).encode() for v in (w, h, maxval, *samples))]
        seps = rng.integers(len(PGM_SEPARATORS), size=len(fields))
        p.write_bytes(b"".join(f + PGM_SEPARATORS[i] for f, i in zip(fields, seps)))
        assert np.array_equal(read_pgm(p), samples.reshape(h, w) / maxval)
    # bytes outside ASCII whitespace do not separate: the two samples are one token
    for sep, shown in ((b"\x1c", "\\x1c"), (b"\xa0", "\\xa0")):
        p.write_bytes(b"P2 2 1 255\n1" + sep + b"2\n")
        with pytest.raises(MatrixIoError) as exc:
            read_pgm(p)
        assert str(exc.value) == f"{p}: non-numeric sample '1{shown}2'"


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


@pytest.mark.parametrize("data, message", [
    (None, None),
    (b"", "empty file"),
    (b"# a comment and nothing else\n", "empty file"),
    (b"P5 4 4", "truncated header"),
    (b"P5 a 4 255", "non-numeric header fields"),
    (b"P2 0 4 255", "bad dimensions 0x4"),
    (b"P2 2 1 255\n1 x\n", "non-numeric sample 'x'"),
    (b"P2 2 2 255\n1 2 3", "expected 4 samples, found 3"),
    (b"P2 2 1 255\n300 0\n", "sample 1 is 300, outside [0, 255]"),
    (b"P2 2 1 255\n3 -1\n", "non-numeric sample '-1'"),
    (b"P5 2 1 1000\n\x00\x01\xff\xff", "sample 2 is 65535, outside [0, 1000]"),
    # header fields and samples are runs of decimal digits, nothing int() takes besides
    (b"P2 +2 1 255\n0 0\n", "non-numeric header fields"),
    (b"P2 2 1 2_55\n0 0\n", "non-numeric header fields"),
    (b"P2 2 1 255\n+4 0\n", "non-numeric sample '+4'"),
    (b"P2 2 1 255\n4 1_0\n", "non-numeric sample '1_0'"),
    # the range is checked on the integers, before any float conversion
    (b"P2 1 1 255\n9007199254740993\n", "sample 1 is 9007199254740993, outside [0, 255]"),
    (b"P2 1 1 255\n" + b"9" * 400 + b"\n", f"sample 1 is {'9' * 400}, outside [0, 255]"),
], ids=["directory", "empty", "comment-only", "short-header", "text-header", "zero-width",
        "text-sample", "few-samples", "sample-above-maxval", "negative-sample",
        "wide-sample-above-maxval", "signed-header", "separated-header", "signed-sample",
        "separated-sample", "sample-above-2-to-53", "sample-of-400-digits"])
def test_read_pgm_error_messages(tmp_path, data, message):
    p = tmp_path / "img.pgm"
    if data is None:
        p.mkdir()
        with pytest.raises(OSError) as exc:
            p.read_bytes()
        expected = f"cannot read {p}: {exc.value}"
    else:
        p.write_bytes(data)
        expected = f"{p}: {message}"
    with pytest.raises(MatrixIoError) as exc:
        read_pgm(p)
    assert str(exc.value) == expected


def test_read_pgm_long_runs_of_leading_zeros(tmp_path):
    # a sample's digits count without its leading zeros
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P2 3 1 255\n00255 0000000000000000000255 000000000000000000000\n")
    assert read_pgm(p).tolist() == [[1.0, 1.0, 0.0]]
    p.write_bytes(b"P2 2 1 255\n00255 0000000000000000000256\n")
    with pytest.raises(MatrixIoError) as exc:
        read_pgm(p)
    assert str(exc.value) == f"{p}: sample 2 is 256, outside [0, 255]"


def test_config_params_round_trip():
    cfg = SolverConfig(lam=0.05, mu0=2e-3, rho=1.2, tol=1e-4, max_outer=77,
                       surrogate=nuclear_surrogate(), penalty=COLUMNWISE_L21)
    assert config_from_params(config_to_params(cfg)) == cfg
    cfg2 = SolverConfig()
    assert config_from_params(config_to_params(cfg2)) == cfg2
    # every field off its default, so an echo that drops one fails here
    cfg3 = SolverConfig(lam=0.05, mu0=2e-3, rho=1.2, mu_max=1e8, tol=1e-4, max_outer=77,
                        surrogate=gamma_surrogate(0.5), penalty=COLUMNWISE_L21, auto_scale=True)
    for f in dataclasses.fields(SolverConfig):
        assert getattr(cfg3, f.name) != getattr(cfg2, f.name), f.name
    assert config_from_params(config_to_params(cfg3)) == cfg3


# the echo's exact form, as report.json carries it (keys sorted on write)
ECHOES = {
    "gamma-l1": (
        SolverConfig(),
        {"lambda": 1e-3, "mu0": 1e-4, "rho": 1.1, "mu_max": 1e10, "tol": 1e-3,
         "max_outer": 500, "surrogate": {"kind": "gamma", "gamma": 0.01},
         "penalty": "l1", "auto_scale": False},
    ),
    "nuclear-l21": (
        SolverConfig(lam=0.05, mu0=2e-3, rho=1.2, mu_max=1e8, tol=1e-4, max_outer=77,
                     surrogate=nuclear_surrogate(), penalty=COLUMNWISE_L21, auto_scale=True),
        {"lambda": 0.05, "mu0": 2e-3, "rho": 1.2, "mu_max": 1e8, "tol": 1e-4,
         "max_outer": 77, "surrogate": {"kind": "nuclear"}, "penalty": "l21", "auto_scale": True},
    ),
}


@pytest.mark.parametrize("cfg, expected", list(ECHOES.values()), ids=list(ECHOES))
def test_config_to_params_format(cfg, expected):
    params = config_to_params(cfg)
    assert params == expected
    # equal dicts can still differ in JSON (500 against 500.0)
    assert json.dumps(params, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_config_from_params_missing_key_raises():
    params = config_to_params(SolverConfig())
    for key in set(params) - {"auto_scale"}:
        partial = {k: v for k, v in params.items() if k != key}
        with pytest.raises(KeyError):
            config_from_params(partial)


def test_config_from_params_reads_a_report_without_auto_scale():
    # reports written before the working scale solved on X as given
    cfg = SolverConfig(mu0=2e-3, penalty=COLUMNWISE_L21)
    params = config_to_params(cfg)
    del params["auto_scale"]
    assert config_from_params(params) == cfg
    params["auto_scale"] = True
    assert config_from_params(params) == SolverConfig(mu0=2e-3, penalty=COLUMNWISE_L21, auto_scale=True)


def test_config_from_params_ignores_the_old_dc_echo():
    # reports written before the gamma prox had a closed form echo the
    # settings of its inner loop under "dc"; a "seed" key is ignored the
    # same way
    cfg = SolverConfig(mu0=2e-3, penalty=COLUMNWISE_L21)
    params = config_to_params(cfg)
    assert "dc" not in params and "seed" not in params
    params["dc"] = {"max_inner": 30, "tol": 1e-10}
    params["seed"] = 3
    assert config_from_params(params) == cfg


def test_report_fields_and_rerun(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 20))
    cfg = SolverConfig(mu0=1e-2)
    result = solve(x, cfg)
    report = build_report(cfg, result)
    assert report["converged"] is True
    # the report's rank is the last iteration's record, which agrees with an
    # SVD of the final L; this planted rank-4 input comes back at rank 3
    # under mu0=1e-2
    assert report["rank_estimate"] == rank_estimate(result.l) == 3
    assert set(report["kkt"]) == {"primal", "dual"}
    assert len(report["history"]) == report["iterations"]
    for rec in report["history"]:
        assert {"iter", "residual", "lagrangian", "rank_estimate",
                "y_inf_norm", "mu", "mu_s_change", "l_route", "gamma"} == set(rec)
        assert rec["l_route"] in {"low_rank", "gram", "svd"}
    # the params echo is enough to reproduce the run
    rerun = solve(x, config_from_params(report["params"]))
    assert [r.residual for r in rerun.history] == [r.residual for r in result.history]
    assert [r.lagrangian for r in rerun.history] == [r.lagrangian for r in result.history]
    out = tmp_path / "report.json"
    write_json(out, report)
    assert json.loads(out.read_text())["iterations"] == result.iterations


def test_usable_cpus_counts_the_cpus_this_process_may_run_on():
    count = rpca.matrixio._usable_cpus()
    assert 1 <= count <= os.cpu_count()
    if hasattr(os, "sched_getaffinity"):
        assert count == len(os.sched_getaffinity(0))
