import math

import numpy as np
import pytest

from sparseclust.concentration import update_concentration


def _two_component_update(conc, k, n, prior_shape, prior_rate, rng):
    """Reference: the single-CRP auxiliary-variable update. Draws
    x ~ Beta(conc+1, n), then returns a draw from the two-component gamma
    mixture with shapes prior_shape+k and prior_shape+k-1 and common rate
    prior_rate - log x."""
    x = rng.beta(conc + 1.0, n)
    rate = prior_rate - math.log(x)
    w = (prior_shape + k - 1.0) / ((prior_shape + k - 1.0) + n * rate)
    shape = prior_shape + k if rng.random() < w else prior_shape + k - 1.0
    return rng.gamma(shape, 1.0 / rate)


def _crp_cluster_count(conc, n, rng):
    k = 0
    for i in range(n):
        if rng.random() * (conc + i) >= i:
            k += 1
    return k


def test_rejects_empty_crp():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        update_concentration(1.0, [(0, 5)], 0.5, 0.5, rng)
    with pytest.raises(ValueError):
        update_concentration(1.0, [(1, 0)], 0.5, 0.5, rng)


def test_single_item_crp_keeps_prior():
    """k=1, n=1 carries no information: one update step from a prior draw
    must leave the prior marginal intact."""
    rng = np.random.default_rng(1)
    s, r = 0.5, 0.5
    draws = np.empty(100_000)
    for t in range(len(draws)):
        conc = rng.gamma(s, 1.0 / r)
        draws[t] = update_concentration(conc, [(1, 1)], s, r, rng)
    se = draws.std() / math.sqrt(len(draws))
    assert abs(draws.mean() - s / r) < 4 * se
    se2 = (draws**2).std() / math.sqrt(len(draws))
    want_m2 = s * (s + 1) / r**2
    assert abs((draws**2).mean() - want_m2) < 4 * se2


def test_multi_single_cluster_reduces_to_plain_update():
    """With one CRP the update must reproduce the two-component form draw
    for draw (identical RNG stream)."""
    for seed in range(200):
        k, m = 1 + seed % 4, 1 + (seed * 7) % 9
        conc = 0.3 + (seed % 5) * 0.4
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        a = _two_component_update(conc, k, m, 0.5, 0.5, rng_a)
        b = update_concentration(conc, [(k, m)], 0.5, 0.5, rng_b)
        assert a == b
        assert rng_a.random() == rng_b.random()  # same generator position


def test_multi_no_data_redraws_prior():
    rng = np.random.default_rng(2)
    draws = np.array([
        update_concentration(3.7, [(0, 0), (0, 0)], 0.5, 0.5, rng) for _ in range(100_000)
    ])
    se = draws.std() / math.sqrt(len(draws))
    assert abs(draws.mean() - 1.0) < 4 * se


def test_multi_positive_and_finite():
    rng = np.random.default_rng(3)
    for _ in range(500):
        conc = rng.gamma(0.5, 2.0)
        pairs = [(1 + int(rng.integers(3)), 1 + int(rng.integers(6))) for _ in range(4)]
        pairs = [(min(k, m), m) for k, m in pairs]
        out = update_concentration(conc, pairs, 0.5, 0.5, rng)
        assert out > 0.0 and np.isfinite(out)


def _batch_se(x, n_batches=100):
    m = len(x) // n_batches
    b = np.asarray(x[: m * n_batches]).reshape(n_batches, m).mean(axis=1)
    return float(b.std(ddof=1) / math.sqrt(n_batches))


def test_joint_invariance_single_crp():
    """Alternate (partition | conc) exactly and (conc | partition) via the
    update; the Gamma(0.5, 0.5) marginal of conc must be preserved."""
    rng = np.random.default_rng(4)
    s, r, n = 0.5, 0.5, 5
    conc = rng.gamma(s, 1.0 / r)
    draws = np.empty(60_000)
    for t in range(len(draws)):
        k = _crp_cluster_count(conc, n, rng)
        conc = update_concentration(conc, [(k, n)], s, r, rng)
        draws[t] = conc
    z_mean = (draws.mean() - s / r) / _batch_se(draws)
    z_m2 = ((draws**2).mean() - s * (s + 1) / r**2) / _batch_se(draws**2)
    assert abs(z_mean) < 4
    assert abs(z_m2) < 4


def test_joint_invariance_multi_crp():
    """Same two-sampler comparison with three inner CRPs of sizes <= 3."""
    rng = np.random.default_rng(5)
    s, r = 0.5, 0.5
    sizes = [3, 2, 3]
    conc = rng.gamma(s, 1.0 / r)
    draws = np.empty(60_000)
    for t in range(len(draws)):
        pairs = [(_crp_cluster_count(conc, m, rng), m) for m in sizes]
        conc = update_concentration(conc, pairs, s, r, rng)
        draws[t] = conc
    z_mean = (draws.mean() - s / r) / _batch_se(draws)
    z_m2 = ((draws**2).mean() - s * (s + 1) / r**2) / _batch_se(draws**2)
    assert abs(z_mean) < 4
    assert abs(z_m2) < 4
