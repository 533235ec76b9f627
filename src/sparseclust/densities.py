"""Log-density primitives and numerically stable categorical sampling.

All probability arithmetic elsewhere in the package is done in log space;
these helpers are the single implementation used everywhere.
"""

import math

LOG_2PI = math.log(2.0 * math.pi)
_NEG_INF = float("-inf")


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
    return shape * math.log(rate) - math.lgamma(shape) - (shape + 1.0) * math.log(x) - rate / x


def log_beta_pdf(x, a, b):
    """Log density of Beta(a, b) at x in the open interval (0, 1)."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must be in (0,1), got {x}")
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    return ((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)
            - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))


def pick_with_lse(logw, u=None):
    """Single-pass categorical draw from unnormalized log weights (a list),
    returned with the log normalizer: the first index whose running weight
    reaches ``u`` times the total, for a uniform ``u``. With ``u`` None only
    the normalizer, by the same summation, so replays stay bitwise equal.

    Aborts (rather than clamping) on non-finite input so that sampler bugs
    surface immediately: a NaN or +inf anywhere makes the total NaN, since
    ``max`` skips a NaN unless it comes first and inf - inf is NaN.
    """
    m = max(logw)
    if m == _NEG_INF:
        if all(w == m for w in logw):
            raise SamplerAbort("all log weights are -inf")
        raise SamplerAbort(f"non-finite log weights {logw}")
    exps = []
    t = 0.0
    for w in logw:
        e = math.exp(w - m)
        exps.append(e)
        t += e
    if not t < math.inf:
        raise SamplerAbort(f"non-finite log weights {logw}")
    lse = m + math.log(t)
    if u is None:
        return None, lse
    u *= t
    acc = 0.0
    for idx, e in enumerate(exps):
        acc += e
        if u <= acc:
            return idx, lse
    return len(exps) - 1, lse
