"""File formats: CSV matrices, PGM frames, and JSON run reports."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from .linalg import as_matrix
from .solver import SolverConfig, SolverResult
from .sparse import SparsePenalty
from .surrogates import RankSurrogate, GAMMA, NUCLEAR


class MatrixIoError(ValueError):
    """Raised for unreadable, malformed, or unsupported input files."""


def read_matrix_csv(path) -> np.ndarray:
    """Parse a headerless rectangular CSV of numbers into a matrix.

    The file is read as UTF-8, and a leading byte-order mark is skipped.
    Every field is one Python ``float`` token, surrounding whitespace
    allowed; one trailing blank line is tolerated. The lines are parsed by
    ``np.loadtxt``, whose C parser reads a subset of ``float``'s grammar to
    the same bits. If it fails, skips a blank line, or the matrix holds a
    non-finite value, the lines are parsed again token by token
    (``_parse_rows``), which accepts the rest of the grammar (digit
    separators, non-ASCII digits) and names the first bad row and column.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise MatrixIoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixIoError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    lines = text.splitlines()
    if lines and lines[-1] == "":
        lines.pop()  # tolerate one trailing blank line
    if not lines:
        raise MatrixIoError(f"{path}: no rows")
    # loadtxt strips U+001F around a token, which float does not, and warns
    # when every line is blank; both cases go to the token parser
    if "\x1f" not in text and any(lines):
        try:
            out = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            pass
        else:
            if len(out) == len(lines) and np.isfinite(out).all():
                return out
    return _parse_rows(path, lines)


def _parse_rows(path: Path, lines: list[str]) -> np.ndarray:
    """Token-by-token parse that raises on the first ragged row or bad token."""
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise MatrixIoError(
                f"{path}: ragged row {lineno} has {len(tokens)} fields, expected {width}"
            )
        parsed = []
        for colno, tok in enumerate(tokens, start=1):
            try:
                value = float(tok)
            except ValueError as exc:
                raise MatrixIoError(
                    f"{path}: row {lineno}, column {colno}: not a number: {tok!r}"
                ) from exc
            if not np.isfinite(value):
                raise MatrixIoError(
                    f"{path}: row {lineno}, column {colno}: non-finite value {tok!r}"
                )
            parsed.append(value)
        rows.append(parsed)
    return np.array(rows, dtype=np.float64)


# Matrices of at least this many values are written by two processes when
# two cores are usable. Fork, temp file and copy cost about 5 ms; formatting
# costs about 0.8 us per value. Right after BLAS work (both cores awake) the
# split breaks even near 2**14 values and saves 24% at 51k; on cores that
# were idle it first pays between 2**17 and 2**18 (2-vCPU Xeon VM). The CLI
# writes right after a solve.
FORK_MIN_VALUES = 1 << 16


def write_matrix_csv(path, m) -> None:
    """Write a matrix as comma-separated rows, 17 significant digits per entry.

    17 digits round-trip a 64-bit float exactly, so write-then-read is
    lossless and repeated writes of the same matrix are byte-identical.
    Each row is formatted with one ``%`` template and written as it is made,
    so no copy of the whole text is held in memory. A matrix of at least
    ``FORK_MIN_VALUES`` values, when two cores are usable, has its bottom
    half formatted by a forked child into an anonymous temporary file, which
    is appended in fixed-size chunks once the top half is written. The
    bytes are the same as a one-process write.
    """
    a = as_matrix(m)
    row_format = ",".join(["%.17g"] * a.shape[1]) + "\n"
    split = len(a)
    if a.size >= FORK_MIN_VALUES and len(a) > 1 and _usable_cpus() > 1:
        split = len(a) // 2
    with _rows_in_child(a[split:], row_format) as append_tail:
        with Path(path).open("w") as f:
            _write_rows(f, a[:split], row_format)
            append_tail(f)
            if not len(a):
                f.write("\n")  # a matrix with no rows is one empty line


def _write_rows(f, rows: np.ndarray, row_format: str) -> None:
    f.writelines(row_format % tuple(row.tolist()) for row in rows)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextlib.contextmanager
def _rows_in_child(rows: np.ndarray, row_format: str):
    """Format ``rows`` in a forked child while the caller writes the rows above.

    Yields ``append(f)``, which waits for the child and copies its text to
    ``f``. If no child could be started, or it failed, ``append`` formats
    the rows itself, so every error the caller sees is its own. A child
    still running on exit (the caller raised) is killed; it is always reaped.
    The child is safe to fork from a process with BLAS threads: it formats
    memory it inherited into a file object made before the fork, takes no
    lock another thread could hold, and leaves through ``os._exit``.
    """
    pid = tmp = None
    if len(rows):
        try:
            tmp = tempfile.TemporaryFile("w+")
            pid = os.fork()
        except OSError:
            pid = None
        if pid == 0:
            code = 1
            try:
                _write_rows(tmp, rows, row_format)
                tmp.flush()
                code = 0
            finally:
                os._exit(code)

    def append(f) -> None:
        nonlocal pid
        if pid is not None:
            try:
                status = os.waitpid(pid, 0)[1]
            except ChildProcessError:  # SIGCHLD ignored: the exit status is lost
                status = -1
            pid = None
            if status == 0:
                f.flush()
                tmp.seek(0)
                shutil.copyfileobj(tmp.buffer, f.buffer)
                return
        _write_rows(f, rows, row_format)

    try:
        yield append
    finally:
        if pid is not None:
            import signal  # only this path needs it; importing rpca does not load it

            # with SIGCHLD ignored the child may already be gone and reaped
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if tmp is not None:
            tmp.close()


def _pgm_tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping '#' comments."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i : i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < n and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        else:
            j = i
            while j < n and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            yield data[i:j], j
            i = j


def read_pgm(path) -> np.ndarray:
    """Read an ASCII (P2) or binary (P5) PGM image, scaled to [0, 1].

    Intensities are divided by the header max value (at most 65535; binary
    payloads use one byte per sample up to 255 and big-endian two bytes
    above that).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise MatrixIoError(f"cannot read {path}: {exc}") from exc
    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise MatrixIoError(f"{path}: empty file") from None
    if magic not in (b"P2", b"P5"):
        raise MatrixIoError(f"{path}: unsupported format magic {magic.decode('latin-1')!r}")
    header = []
    end = 0
    for tok, pos in tokens:
        header.append(tok)
        end = pos
        if len(header) == 3:
            break
    if len(header) < 3:
        raise MatrixIoError(f"{path}: truncated header")
    try:
        width, height, maxval = (int(t) for t in header)
    except ValueError:
        raise MatrixIoError(f"{path}: non-numeric header fields") from None
    if width < 1 or height < 1:
        raise MatrixIoError(f"{path}: bad dimensions {width}x{height}")
    if maxval < 1 or maxval > 65535:
        raise MatrixIoError(f"{path}: max value {maxval} out of range [1, 65535]")

    count = width * height
    if magic == b"P2":
        values = []
        for tok, _ in tokens:
            try:
                values.append(int(tok))
            except ValueError:
                raise MatrixIoError(f"{path}: non-numeric sample {tok!r}") from None
            if len(values) == count:
                break
        if len(values) < count:
            raise MatrixIoError(f"{path}: expected {count} samples, found {len(values)}")
        raw = np.array(values, dtype=np.float64)
    else:
        payload = data[end + 1 :]  # single whitespace byte separates header and raster
        bytes_per = 1 if maxval < 256 else 2
        if len(payload) < count * bytes_per:
            raise MatrixIoError(
                f"{path}: truncated raster, expected {count * bytes_per} bytes, found {len(payload)}"
            )
        dtype = np.uint8 if bytes_per == 1 else np.dtype(">u2")
        raw = np.frombuffer(payload[: count * bytes_per], dtype=dtype).astype(np.float64)
    return raw.reshape((height, width)) / float(maxval)


def write_pgm(path, m, maxval: int = 255, binary: bool = True) -> None:
    """Write a [0, 1]-scaled matrix as a PGM image (P5 by default, P2 otherwise)."""
    a = as_matrix(m)
    if maxval < 1 or maxval > 65535:
        raise MatrixIoError(f"max value {maxval} out of range [1, 65535]")
    q = np.clip(np.rint(a * maxval), 0, maxval).astype(np.uint32)
    h, w = a.shape
    header = f"{'P5' if binary else 'P2'}\n{w} {h}\n{maxval}\n".encode("ascii")
    if binary:
        dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
        Path(path).write_bytes(header + q.astype(dtype).tobytes())
    else:
        body = "\n".join(" ".join(str(v) for v in row) for row in q)
        Path(path).write_bytes(header + body.encode("ascii") + b"\n")


def config_to_params(cfg: SolverConfig, seed: int | None = None) -> dict:
    """Flatten a solver config into the JSON-friendly params echo."""
    surrogate: dict = {"kind": cfg.surrogate.kind}
    if cfg.surrogate.kind == GAMMA:
        surrogate["gamma"] = cfg.surrogate.gamma
    params = {
        "lambda": cfg.lam,
        "mu0": cfg.mu0,
        "rho": cfg.rho,
        "mu_max": cfg.mu_max,
        "tol": cfg.tol,
        "max_outer": cfg.max_outer,
        "surrogate": surrogate,
        "penalty": cfg.penalty.kind,
    }
    if seed is not None:
        params["seed"] = seed
    return params


def config_from_params(params: dict) -> SolverConfig:
    """Rebuild a solver config from a params echo (inverse of config_to_params).

    Keys the config does not have, such as the ``"dc"`` block that older
    reports echo, are ignored.
    """
    sur = params["surrogate"]
    surrogate = (
        RankSurrogate(GAMMA, sur["gamma"]) if sur["kind"] == GAMMA else RankSurrogate(NUCLEAR)
    )
    return SolverConfig(
        lam=params["lambda"],
        mu0=params["mu0"],
        rho=params["rho"],
        mu_max=params["mu_max"],
        tol=params["tol"],
        max_outer=params["max_outer"],
        surrogate=surrogate,
        penalty=SparsePenalty(params["penalty"]),
    )


def build_report(cfg: SolverConfig, result: SolverResult, seed: int | None = None) -> dict:
    """Assemble the run report: params echo, outcome summary, full history.

    The final residual and rank estimate are the last iteration's.
    """
    last = result.history[-1]
    return {
        "params": config_to_params(cfg, seed),
        "iterations": result.iterations,
        "converged": result.converged,
        "final_residual": last.residual,
        "rank_estimate": last.rank_estimate,
        "elapsed_seconds": result.elapsed_seconds,
        "kkt": {"primal": result.kkt_primal, "dual": result.kkt_dual},
        "history": [dataclasses.asdict(r) for r in result.history],
    }


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
