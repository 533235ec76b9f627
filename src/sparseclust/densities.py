"""Log-density primitives and numerically stable categorical sampling.

All probability arithmetic elsewhere in the package is done in log space;
these helpers are the single implementation used everywhere.
"""

import math

import numpy as np
from scipy.special import betaln, gammaln

LOG_2PI = math.log(2.0 * math.pi)


class SamplerAbort(RuntimeError):
    """Raised when a sampler encounters non-finite log weights."""


def log_normal_pdf(x, mean, variance):
    """Log of the N(mean, variance) density at x. variance must be > 0."""
    if variance <= 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    d = x - mean
    return -0.5 * (LOG_2PI + math.log(variance) + d * d / variance)


def log_inv_gamma_pdf(x, shape, rate):
    """Log density of Inv-Gamma(shape, rate), i.e. p(x) ∝ x^{-shape-1} e^{-rate/x}."""
    if x <= 0.0 or shape <= 0.0 or rate <= 0.0:
        raise ValueError(
            f"log_inv_gamma_pdf needs positive arguments, got x={x}, "
            f"shape={shape}, rate={rate}"
        )
    return shape * math.log(rate) - gammaln(shape) - (shape + 1.0) * math.log(x) - rate / x


def log_beta_pdf(x, a, b):
    """Log density of Beta(a, b) at x in the open interval (0, 1)."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must be in (0,1), got {x}")
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    return (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - betaln(a, b)


def sample_log_categorical(logw, rng, where="categorical"):
    """Sample an index from unnormalized log weights.

    Aborts (rather than clamping) on non-finite input so that sampler bugs
    surface immediately. NaN, +inf and all--inf inputs all make the maximum
    non-finite, so one scalar check suffices: below a finite maximum every
    weight lies in [0, 1] and the largest is 1, so the normalizer is finite
    and at least 1.
    """
    logw = np.asarray(logw, dtype=float)
    m = np.maximum.reduce(logw)
    if not math.isfinite(m):
        raise SamplerAbort(f"{where}: non-finite log weights {logw}")
    p = np.exp(logw - m)
    u = rng.random() * np.add.reduce(p)
    return min(int(np.add.accumulate(p).searchsorted(u)), len(p) - 1)


def draw_inv_gamma(shape, rate, rng):
    """One draw from Inv-Gamma(shape, rate)."""
    return rate / rng.gamma(shape)
