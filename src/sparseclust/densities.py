"""Numerically stable categorical sampling from log weights.

All probability arithmetic in the package is done in log space; the pick
here is the single categorical draw used everywhere.
"""

import math

LOG_2PI = math.log(2.0 * math.pi)
_NEG_INF = float("-inf")


class SamplerAbort(RuntimeError):
    """Raised when a sampler encounters non-finite log weights."""


def pick_with_lse(logw, u):
    """Single-pass categorical draw from unnormalized log weights (a list),
    returned with the log normalizer: the first index whose running weight
    reaches ``u`` times the total, for a uniform ``u``.

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
    u *= t
    acc = 0.0
    for idx, e in enumerate(exps):
        acc += e
        if u <= acc:
            return idx, lse
    return len(exps) - 1, lse
