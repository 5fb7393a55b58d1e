"""File formats: CSV matrices, PGM frames, and JSON run reports."""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np

from .linalg import as_matrix
from .solver import SolverConfig, SolverResult
from .sparse import SparsePenalty
from .surrogates import NUCLEAR, RankSurrogate


class MatrixIoError(ValueError):
    """Raised for unreadable, malformed, or unsupported input files."""


def read_matrix_csv(path) -> np.ndarray:
    """Parse a headerless rectangular CSV of numbers into a matrix.

    The file is read as UTF-8, and a leading byte-order mark is skipped.
    Every field is one Python ``float`` token, surrounding whitespace
    allowed; one trailing blank line is tolerated. The lines are parsed by
    ``np.loadtxt``, whose C parser reads a subset of ``float``'s grammar to
    the same bits. If it fails or skips a blank line, the lines are parsed
    again token by token (``_parse_rows``), which accepts the rest of the
    grammar (digit separators, non-ASCII digits) and names the first bad
    row and column. A non-finite value that ``np.loadtxt`` read is named
    from its line alone.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise MatrixIoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixIoError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    # loadtxt strips U+001F around a token, which float does not, and warns
    # when every line is blank; both cases go to the token parser. The text
    # is let go once split: splitlines does not break on U+001F
    unit_separator = "\x1f" in text
    lines = text.splitlines()
    del text
    if lines and lines[-1] == "":
        lines.pop()  # tolerate one trailing blank line
    if not lines:
        raise MatrixIoError(f"{path}: no rows")
    if not unit_separator and any(lines):
        try:
            out = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            pass
        else:
            if len(out) == len(lines):
                if np.isfinite(out).all():
                    return out
                row, col = np.argwhere(~np.isfinite(out))[0]
                raise _non_finite(path, row + 1, col + 1, lines[row].split(",")[col])
    return _parse_rows(path, lines)


def _non_finite(path: Path, lineno: int, colno: int, tok: str) -> MatrixIoError:
    return MatrixIoError(f"{path}: row {lineno}, column {colno}: non-finite value {tok!r}")


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
            if not math.isfinite(value):
                raise _non_finite(path, lineno, colno, tok)
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


# One match is a comment ('#' up to the next CR or LF) or a token (a run of
# bytes that are neither ASCII whitespace nor '#'). In a bytes pattern \s is
# exactly the set that bytes.isspace() tests.
_PGM_TOKEN = re.compile(rb"#[^\r\n]*|[^\s#]+")


def read_pgm(path) -> np.ndarray:
    """Read an ASCII (P2) or binary (P5) PGM image, scaled to [0, 1].

    Intensities are divided by the header max value (at most 65535; binary
    payloads use one byte per sample up to 255 and big-endian two bytes
    above that). Header fields and P2 samples are runs of ASCII decimal
    digits. Every sample must lie in ``[0, maxval]``.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise MatrixIoError(f"cannot read {path}: {exc}") from exc
    tokens = (t for t in _PGM_TOKEN.finditer(data) if not t[0].startswith(b"#"))
    magic = next(tokens, None)
    if magic is None:
        raise MatrixIoError(f"{path}: empty file")
    if magic[0] not in (b"P2", b"P5"):
        raise MatrixIoError(f"{path}: unsupported format magic {magic[0].decode('latin-1')!r}")
    header = list(itertools.islice(tokens, 3))
    if len(header) < 3:
        raise MatrixIoError(f"{path}: truncated header")
    try:
        if not all(t[0].isdigit() for t in header):  # bytes.isdigit: ASCII digits only
            raise ValueError
        width, height, maxval = (int(t[0]) for t in header)
    except ValueError:  # also int()'s refusal of a run of over 4300 digits
        raise MatrixIoError(f"{path}: non-numeric header fields") from None
    if width < 1 or height < 1:
        raise MatrixIoError(f"{path}: bad dimensions {width}x{height}")
    if maxval < 1 or maxval > 65535:
        raise MatrixIoError(f"{path}: max value {maxval} out of range [1, 65535]")

    count = width * height
    if magic[0] == b"P2":
        samples = []
        for tok in itertools.islice(tokens, count):
            if not tok[0].isdigit():
                raise MatrixIoError(f"{path}: non-numeric sample {tok[0].decode('latin-1')!r}")
            samples.append(tok[0])
        if len(samples) < count:
            raise MatrixIoError(f"{path}: expected {count} samples, found {len(samples)}")
        # a run of more than five digits, leading zeros aside, exceeds
        # 65535 >= maxval; its first six stand for it, so every value is an
        # exact float and int() never meets a run of over 4300 digits
        raw = np.array(
            [int(t) if len(t) <= 5 else int(t.lstrip(b"0")[:6] or b"0") for t in samples],
            dtype=np.float64,
        )
    else:
        payload = data[header[-1].end() + 1 :]  # single whitespace byte separates header and raster
        bytes_per = 1 if maxval < 256 else 2
        if len(payload) < count * bytes_per:
            raise MatrixIoError(
                f"{path}: truncated raster, expected {count * bytes_per} bytes, found {len(payload)}"
            )
        dtype = np.uint8 if bytes_per == 1 else np.dtype(">u2")
        raw = np.frombuffer(payload[: count * bytes_per], dtype=dtype).astype(np.float64)
    bad = np.flatnonzero(raw > maxval)  # digits and unsigned bytes are never negative
    if bad.size:
        i = bad[0]
        value = samples[i].lstrip(b"0").decode() if magic[0] == b"P2" else f"{raw[i]:.0f}"
        raise MatrixIoError(f"{path}: sample {i + 1} is {value}, outside [0, {maxval}]")
    return raw.reshape((height, width)) / float(maxval)


def config_to_params(cfg: SolverConfig) -> dict:
    """Flatten a solver config into the JSON-friendly params echo.

    The echo is ``dataclasses.asdict(cfg)`` with three changes: ``lam`` is
    written as ``"lambda"``, the penalty as its kind string, and the nuclear
    surrogate without a ``"gamma"`` key.
    """
    params = dataclasses.asdict(cfg)
    params["lambda"] = params.pop("lam")
    params["penalty"] = cfg.penalty.kind
    if cfg.surrogate.kind == NUCLEAR:
        del params["surrogate"]["gamma"]
    return params


def config_from_params(params: dict) -> SolverConfig:
    """Rebuild a solver config from a params echo (inverse of config_to_params).

    A missing key raises ``KeyError``, except ``"auto_scale"``: reports
    written before the working scale existed solved on X as given, so it
    defaults to ``False``. Keys the config does not have, such as ``"seed"``
    or the ``"dc"`` block that older reports echo, are ignored.
    """
    built = {
        "lam": params["lambda"],
        "surrogate": RankSurrogate(**params["surrogate"]),
        "penalty": SparsePenalty(params["penalty"]),
        "auto_scale": params.get("auto_scale", False),
    }
    plain = (f.name for f in dataclasses.fields(SolverConfig) if f.name not in built)
    return SolverConfig(**built, **{name: params[name] for name in plain})


def build_report(cfg: SolverConfig, result: SolverResult) -> dict:
    """Assemble the run report: params echo, outcome summary, full history.

    The final residual and rank estimate are the last iteration's. ``scale``
    is the working scale the solve resolved (see ``SolverResult``).
    """
    last = result.history[-1]
    return {
        "params": config_to_params(cfg),
        "scale": result.scale,
        "iterations": result.iterations,
        "converged": result.converged,
        "final_residual": last.residual,
        "rank_estimate": last.rank_estimate,
        "elapsed_seconds": result.elapsed_seconds,
        "kkt": {"primal": result.kkt_primal, "dual": result.kkt_dual},
        "history": [dataclasses.asdict(r) for r in result.history],
    }


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as JSON; a NaN or an infinity in it, which JSON cannot hold, raises
    ``MatrixIoError`` before ``path`` is opened."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise MatrixIoError(f"{path}: not written: {exc}") from None
    Path(path).write_text(text + "\n")
