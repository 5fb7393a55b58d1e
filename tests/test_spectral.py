import numpy as np
import pytest

from helpers import planted_spectrum, prox_matrix
from rpca.linalg import svd
from rpca.spectral import (
    WARM_RANK_DIVISOR,
    _largest_dropped,
    gram_spectrum,
    gram_tail_below,
    l_step,
    ritz_iterations,
)
from rpca.surrogates import gamma_surrogate, nuclear_surrogate, prox_vector


def test_gram_spectrum_matches_svd():
    rng = np.random.default_rng(9)
    for shape in [(7, 4), (4, 7), (5, 5), (0, 3)]:
        m = rng.standard_normal(shape)
        b = m if shape[0] >= shape[1] else m.T
        g = gram_spectrum(b)
        k = min(shape)
        assert g.vectors.shape == (b.shape[1], k)
        assert np.all(np.diff(g.singulars) <= 0) and np.all(g.singulars >= 0)
        assert np.abs(g.singulars**2 - svd(m).singulars**2).max(initial=0.0) <= g.delta
        assert np.abs(g.vectors.T @ g.vectors - np.eye(k)).max(initial=0.0) <= 1e-12
    assert gram_spectrum(np.zeros((3, 2))).delta == 0.0


def test_gram_spectrum_overflow_is_linalg_error():
    with pytest.raises(np.linalg.LinAlgError):
        gram_spectrum(np.full((3, 2), 1e200))


def test_ritz_overflow_is_linalg_error():
    # ||B||_F^2 overflows while the eigensolver on the Ritz block still succeeds
    b = np.random.default_rng(0).standard_normal((1000, 800)) * 2e151
    with pytest.raises(np.linalg.LinAlgError) as exc:
        next(ritz_iterations(b))
    assert str(exc.value) == "Gram products of a 1000x800 matrix are not finite"


def test_gram_tail_below_a_tiny_bound_skips_the_factorization(monkeypatch):
    # a bound below the rounding slack is refused before anything is
    # factored or r.gram is read; a first-step spectrum carries no G
    b = np.random.default_rng(4).standard_normal((40, 30))
    r = next(ritz_iterations(b))
    assert r.gram is None
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(m.shape) or cholesky(m))
    assert gram_tail_below(b, r, 3, 1e-300) is False
    assert calls == []


@pytest.mark.parametrize("surrogate", [gamma_surrogate(), nuclear_surrogate()], ids=["gamma", "nuclear"])
@pytest.mark.parametrize("lo, hi", [(0.0, 1e6), (3.0, 50.0), (0.0, 1e150)])
def test_largest_dropped_is_exact_to_the_last_bit(surrogate, lo, hi):
    # the keep-thresholds at mu = 0.05, about 6.35 (gamma) and 20 (nuclear),
    # lie in every interval; from 1e150 the bisection needs about 550
    # halvings to reach them
    d = _largest_dropped(lo, hi, 0.05, surrogate)
    assert prox_vector(d, 0.05, surrogate)[0] == 0.0
    assert prox_vector(np.nextafter(d, np.inf), 0.05, surrogate)[0] > 0.0


@pytest.mark.parametrize("offset", [0.5, 1.5], ids=["inside", "outside"])
@pytest.mark.parametrize("value", ["dropped", "kept"])
def test_gram_certificate_boundary(value, offset):
    # the nuclear prox keeps sigma exactly when sigma > 1/mu. Put 1/mu^2 at
    # lambda_6 +- offset*delta, above lambda_6 when it is to be dropped and
    # below when kept: half a delta from it the error interval
    # [lambda_6 - delta, lambda_6 + delta] straddles the threshold and the
    # step falls to the SVD; one and a half deltas away it does not, and the
    # Gram spectrum is certified
    nuclear = nuclear_surrogate()
    a = planted_spectrum(np.random.default_rng(38), 40, 12, np.linspace(20.0, 1.0, 12))
    g = gram_spectrum(a)
    sign = 1.0 if value == "dropped" else -1.0
    mu = 1.0 / np.sqrt(g.singulars[5] ** 2 + sign * offset * g.delta)
    l, sig, route, _ = l_step(a, mu, nuclear, basis=None)
    ref = prox_matrix(a, mu, nuclear)
    assert route == ("svd" if offset < 1.0 else "gram")
    if route == "gram":
        assert np.count_nonzero(sig) == (5 if value == "dropped" else 6)
    assert np.linalg.norm(l - ref) <= 1e-12 * np.linalg.norm(ref)


def test_warm_basis_rule():
    # five values of order 1e6 kept over 55 unit values, p = 60: more than
    # p / WARM_RANK_DIVISOR = 3, so a gram step hands no basis on, but a
    # certified Gram-free step hands on its kept vectors whatever their number
    nuclear = nuclear_surrogate()
    a = planted_spectrum(np.random.default_rng(39), 60, 120, np.r_[5e6, 4e6, 3e6, 2e6, 1e6, np.ones(55)])
    assert 5 * WARM_RANK_DIVISOR > 60
    low = l_step(a, 1e-3, nuclear)
    gram = l_step(a, 1e-3, nuclear, basis=None)
    assert (low.route, low.basis.shape) == ("low_rank", (60, 5))
    assert (gram.route, gram.basis) == ("gram", None)
    ref = prox_matrix(a, 1e-3, nuclear)
    for step in (low, gram):
        assert np.linalg.norm(step.l - ref) <= 1e-12 * np.linalg.norm(ref)
