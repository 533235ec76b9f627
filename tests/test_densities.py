import math

import mpmath
import numpy as np
import pytest

from sparseclust.densities import SamplerAbort, pick_with_lse

from log_densities import log_beta_pdf, log_inv_gamma_pdf, log_normal_pdf

mpmath.mp.dps = 50


def test_log_normal_standard_at_mode():
    assert log_normal_pdf(0.0, 0.0, 1.0) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-14)


def test_log_normal_one_sd_out():
    assert log_normal_pdf(1.0, 0.0, 1.0) == pytest.approx(
        -0.5 * math.log(2 * math.pi) - 0.5, abs=1e-14
    )


def test_log_normal_extended_precision():
    x, m, v = 0.3, 0.1, 0.25
    want = -mpmath.mpf(1) / 2 * (
        mpmath.log(2 * mpmath.pi) + mpmath.log(v) + (mpmath.mpf(x) - m) ** 2 / v
    )
    assert log_normal_pdf(x, m, v) == pytest.approx(float(want), rel=1e-12)


def test_log_normal_rejects_bad_variance():
    with pytest.raises(ValueError):
        log_normal_pdf(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        log_normal_pdf(0.0, 0.0, -1.0)


def test_log_inv_gamma_substitution():
    want = 0.5 * math.log(0.5) - math.lgamma(0.5) - 0.5
    assert log_inv_gamma_pdf(1.0, 0.5, 0.5) == pytest.approx(want, abs=1e-14)


def test_log_inv_gamma_mode():
    shape, rate = 2.0, 3.0
    mode = rate / (shape + 1.0)
    at_mode = log_inv_gamma_pdf(mode, shape, rate)
    assert at_mode >= log_inv_gamma_pdf(mode * 1.01, shape, rate)
    assert at_mode >= log_inv_gamma_pdf(mode * 0.99, shape, rate)


def test_log_inv_gamma_rejects_nonpositive():
    for bad in [(0.0, 1, 1), (1, 0.0, 1), (1, 1, 0.0), (-1, 1, 1)]:
        with pytest.raises(ValueError):
            log_inv_gamma_pdf(*bad)


@pytest.mark.parametrize("shape,rate", [(0.5, 0.5), (2.0, 3.0)])
def test_log_inv_gamma_normalizes(shape, rate):
    total = mpmath.quad(
        lambda x: mpmath.e ** log_inv_gamma_pdf(float(x), shape, rate),
        [mpmath.mpf("1e-8"), rate / (shape + 1), 1, 100, mpmath.inf],
    )
    assert float(total) == pytest.approx(1.0, abs=1e-6)


def test_log_beta_uniform_case():
    assert log_beta_pdf(0.5, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_log_beta_analytic():
    assert log_beta_pdf(0.9, 9.0, 1.0) == pytest.approx(math.log(9 * 0.9**8), abs=1e-12)


def test_log_beta_rejects_boundary():
    for x in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            log_beta_pdf(x, 2.0, 2.0)


def test_log_beta_normalizes_sparse_prior():
    # Substituting x = t^5 regularizes the x^{-0.8} endpoint singularity;
    # the remaining truncation below t=1e-10 carries ~3e-10 mass.
    a, b = 0.2, 199.8
    total = mpmath.quad(
        lambda t: mpmath.e ** log_beta_pdf(float(t) ** 5, a, b) * 5 * t**4,
        [mpmath.mpf("1e-10"), 0.1, 0.5, (1 - mpmath.mpf("1e-12")) ** mpmath.mpf("0.2")],
    )
    assert float(total) == pytest.approx(1.0, abs=1e-6)


def test_pick_with_lse_frequencies():
    rng = np.random.default_rng(1)
    logw = np.log([0.2, 0.5, 0.3]).tolist()
    draws = np.array([pick_with_lse(logw, rng.random())[0] for _ in range(20000)])
    freqs = np.bincount(draws, minlength=3) / len(draws)
    assert np.allclose(freqs, [0.2, 0.5, 0.3], atol=0.02)


def test_pick_joins_first_index_whose_running_weight_reaches_u():
    # weights 2, 1, 1: u * 4 against the running weights 2, 3, 4
    logw = [math.log(2.0), 0.0, 0.0]
    for u, want in ((0.0, 0), (0.5, 0), (0.5001, 1), (0.75, 1), (0.7501, 2)):
        assert pick_with_lse(logw, u) == (want, pytest.approx(math.log(4.0), abs=1e-15))
    # a weight of zero is never picked, not even by the largest uniform
    assert pick_with_lse([math.log(2.0), 0.0, -math.inf], np.nextafter(1.0, 0.0))[0] == 1


def test_pick_with_lse_aborts_on_non_finite_weights():
    """A NaN or +inf anywhere aborts, not only in the first place."""
    for logw in ([math.nan, 0.0, -1.0], [0.0, math.nan, -1.0], [0.0, -1.0, math.nan],
                 [math.inf, 0.0], [0.0, math.inf], [-math.inf, math.nan]):
        with pytest.raises(SamplerAbort, match="non-finite log weights"):
            pick_with_lse(logw, 0.5)
    with pytest.raises(SamplerAbort, match="all log weights are -inf"):
        pick_with_lse([-math.inf, -math.inf], 0.5)
