"""Closed-form log densities the tests score states and draws with: the
normal, inverse-gamma and beta densities and the CRP's partition law. The
sampler needs none of them, as it works with conditional weights and walk
normalisers; the tests' oracles check those against these."""

import math

from sparseclust.densities import LOG_2PI


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
    return shape * math.log(rate) - math.lgamma(shape) - (shape + 1.0) * math.log(x) - rate / x


def log_beta_pdf(x, a, b):
    """Log density of Beta(a, b) at x in the open interval (0, 1)."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must be in (0,1), got {x}")
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    return ((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)
            - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))


def crp_log_prob(sizes, conc):
    """Log probability of a labeled set partition under a CRP.

    For cluster sizes n_1..n_K over n = sum(n_c) items:
    conc^K * prod (n_c - 1)! / prod_{i=0}^{n-1} (conc + i).
    """
    if conc <= 0.0:
        raise ValueError(f"concentration must be positive, got {conc}")
    sizes = list(sizes)
    if not sizes:
        raise ValueError("sizes must be non-empty")
    n = sum(sizes)
    out = len(sizes) * math.log(conc)
    for s in sizes:
        out += math.lgamma(s)
    for i in range(n):
        out -= math.log(conc + i)
    return out
