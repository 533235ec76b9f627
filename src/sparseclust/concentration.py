"""Gamma-prior concentration update via beta auxiliary variables.

Every Dirichlet process of the model (sample clusters, baseline means,
baseline variances and the inner partitions of the cluster means) updates
its concentration with ``update_concentration`` (Escobar & West, JASA 1995,
extended to several CRPs that share one concentration).
"""

import math

import numpy as np
from scipy.special import gammaln

from .densities import sample_log_categorical


def update_concentration(conc, pairs, prior_shape, prior_rate, rng):
    """One draw of a concentration shared by several CRPs.

    ``pairs`` holds one (k_c, m_c) pair per CRP: k_c clusters among m_c
    items. A pair (0, 0) carries no information and is skipped; with no
    informative pair at all the conditional is the prior. A pair with
    clusters but no items, or items but no clusters, raises ValueError.

    Scheme: the c-th CRP likelihood gamma(conc)/gamma(conc+m_c) is augmented
    with x_c ~ Beta(conc+1, m_c) and a binary indicator s_c, giving

        p(conc | x, s) = Gamma(prior_shape + sum k_c - sum s_c,
                               prior_rate - sum log x_c).

    Only the indicator total enters the gamma shape, so the total is drawn
    exactly from its marginal under p(s | x): a distribution over counts with
    P(total = t) proportional to ESP_t(w) * gamma(shape0 - t), where the
    weights are w_c = m_c * (prior_rate - sum log x_c) and ESP_t is the t-th
    elementary symmetric polynomial (evaluated in log space). With a single
    CRP this is the two-component gamma mixture with shapes prior_shape+k
    and prior_shape+k-1.
    """
    for k, m in pairs:
        if (k < 1) != (m < 1):
            raise ValueError(f"need k >= 1 and m >= 1 or neither, got k={k}, m={m}")
    pairs = [(k, m) for k, m in pairs if m >= 1]
    if not pairs:
        return rng.gamma(prior_shape, 1.0 / prior_rate)

    c_count = len(pairs)
    total_k = sum(k for k, _ in pairs)
    xs = [rng.beta(conc + 1.0, m) for _, m in pairs]
    rate = prior_rate - sum(math.log(x) for x in xs)
    shape0 = prior_shape + total_k  # shape when no indicator fires

    logw = [math.log(m) + math.log(rate) for _, m in pairs]
    # Suffix table of log elementary symmetric polynomials:
    # esp[c][t] = log ESP_t(w_c, ..., w_{C-1}).
    neg_inf = float("-inf")
    esp = [[neg_inf] * (c_count + 1) for _ in range(c_count + 1)]
    esp[c_count][0] = 0.0
    for c in range(c_count - 1, -1, -1):
        esp[c][0] = 0.0
        for t in range(1, c_count - c + 1):
            esp[c][t] = np.logaddexp(esp[c + 1][t], logw[c] + esp[c + 1][t - 1])

    log_count = np.array([esp[0][t] + gammaln(shape0 - t) for t in range(c_count + 1)])
    u_total = sample_log_categorical(log_count, rng, where="concentration indicator count")
    return rng.gamma(shape0 - u_total, 1.0 / rate)
