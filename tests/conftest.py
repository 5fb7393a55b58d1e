"""Suite-wide hooks and fixtures: one pass/fail line per acceptance check at
the end, and counters on the L-step's fallback SVD and certified routes."""

import numpy as np
import pytest

import rpca.linalg
import rpca.spectral

_acceptance_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance_results[name] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.failed:
        _acceptance_results[name] = "ERROR"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance checks:")
    for name, status in sorted(_acceptance_results.items()):
        terminalreporter.write_line(f"  {name}: {status}")


@pytest.fixture
def svd_calls(monkeypatch):
    """Count calls to ``rpca.linalg.svd``, the L-step's fallback."""
    calls = []
    original = rpca.linalg.svd

    def counted(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(rpca.linalg, "svd", counted)
    return calls


@pytest.fixture
def ritz_calls(monkeypatch):
    """Count the ``low_rank`` route's attempts, power steps and Cholesky tail checks.

    ``events`` lists them in call order: ``("attempt",)``, ``("step", r)``
    for each Ritz iterate ``r`` and ``("tail", r, k, certified)``.
    """
    calls = {"attempts": 0, "steps": 0, "tails": 0, "events": []}
    iterations, tail_below = rpca.spectral.ritz_iterations, rpca.spectral.gram_tail_below

    def counted_iterations(*args, **kwargs):
        calls["attempts"] += 1
        calls["events"].append(("attempt",))
        for r in iterations(*args, **kwargs):
            calls["steps"] += 1
            calls["events"].append(("step", r))
            yield r

    def counted_tail(g, r, k, shift):
        certified = tail_below(g, r, k, shift)
        calls["tails"] += 1
        calls["events"].append(("tail", r, k, certified))
        return certified

    monkeypatch.setattr(rpca.spectral, "ritz_iterations", counted_iterations)
    monkeypatch.setattr(rpca.spectral, "gram_tail_below", counted_tail)
    return calls
