import math

import mpmath
import numpy as np
import pytest

from sparseclust.clusters import ClusterMeanVector
from sparseclust.model import Hyperparams
from sparseclust.partition import SPIKE
from sparseclust.sparsity import (
    draw_pi_row,
    spike_zero_weight,
    step_rho,
    update_eta_sq,
)

from conftest import build_partition, make_state, manual_state

mpmath.mp.dps = 30


def test_pi_nonzero_mean_is_slab_beta():
    hp = Hyperparams(base_mean=0.0, base_var=1.0)  # slab Beta(9,1)
    rng = np.random.default_rng(0)
    draws = draw_pi_row(np.zeros(50_000, dtype=bool), np.full(50_000, 0.5), hp, rng)
    assert np.all(draws > 0.0)
    want_mean = 10.0 / 11.0  # Beta(10, 1)
    se = draws.std() / math.sqrt(len(draws))
    assert abs(draws.mean() - want_mean) < 4 * se


def test_pi_zero_mean_zero_rho_is_spike():
    hp = Hyperparams(base_mean=0.0, base_var=1.0)
    rng = np.random.default_rng(1)
    assert (draw_pi_row(np.ones(100, dtype=bool), np.zeros(100), hp, rng) == 0.0).all()


def test_spike_weight_against_quadrature_posterior():
    """w0 for (rho=0.5, a=9, b=1) equals 10/11 and matches the numerically
    integrated posterior of the zero-mean observation."""
    a, b, rho = 9.0, 1.0, 0.5
    w0 = spike_zero_weight(rho, a, b)
    assert w0 == pytest.approx(10.0 / 11.0, rel=1e-12)

    def beta_pdf(x):
        return x ** (a - 1) * (1 - x) ** (b - 1) / mpmath.beta(a, b)

    # joint over (spike indicator, pi): spike mass (1-rho); continuous part
    # rho * Beta(pi; a, b) * (1 - pi) after observing a zero mean component
    cont_mass = mpmath.quad(lambda x: rho * beta_pdf(x) * (1 - x), [0, 1])
    oracle = float((1 - rho) / ((1 - rho) + cont_mass))
    assert w0 == pytest.approx(oracle, rel=1e-10)


def test_pi_spike_frequency_matches_w0():
    hp = Hyperparams(base_mean=0.0, base_var=1.0)
    rho = 0.5
    rng = np.random.default_rng(2)
    draws = draw_pi_row(np.ones(100_000, dtype=bool), np.full(100_000, rho), hp, rng)
    w0 = spike_zero_weight(rho, hp.slab_a, hp.slab_b)
    p_zero = (draws == 0.0).mean()
    se = math.sqrt(w0 * (1 - w0) / len(draws))
    assert abs(p_zero - w0) < 4 * se
    # nonzero part is Beta(a, b+1)
    nz = draws[draws > 0.0]
    want = hp.slab_a / (hp.slab_a + hp.slab_b + 1.0)
    assert abs(nz.mean() - want) < 4 * nz.std() / math.sqrt(len(nz))


def test_update_pi_respects_mu_coupling(tiny_state):
    state, data, hp = tiny_state
    rng = np.random.default_rng(3)
    for cid in state.samples.cluster_ids():
        mean = state.cluster_means[cid]
        row = draw_pi_row(mean.inner.spike_mask(), state.attr_prob, hp, rng)
        for j in range(data.p):
            if mean.inner.cluster_of(j) != SPIKE:
                assert row[j] > 0.0
        state.incl_prob[cid] = row
    state.validate(data)


def _rho_draws(state, hp, rng, count):
    """Repeated step_rho draws of the whole attr_prob vector."""
    out = np.empty((count, state.p))
    for t in range(count):
        step_rho(state, hp, rng)
        out[t] = state.attr_prob
    return out


def test_update_rho_posterior_params():
    # K clusters with controlled inclusion columns
    state, data, hp = make_state(n=6, p=2, seed=29, require_multi=True)
    j = 0
    k_live = state.samples.n_clusters()
    active = sum(1 for cid in state.samples.cluster_ids() if state.incl_prob[cid][j] > 0)
    rng = np.random.default_rng(0)
    draws = _rho_draws(state, hp, rng, 100_000)[:, j]
    want_mean = (hp.rho_a + active) / (hp.rho_a + hp.rho_b + k_live)
    se = draws.std() / math.sqrt(len(draws))
    assert abs(draws.mean() - want_mean) < 4 * se


def test_update_rho_extreme_counts():
    """Boundary counts: all-zero column gives Beta(0.2, 203.8), all-active
    gives Beta(4.2, 199.8) under the sparse defaults with K=4."""
    seed = 0
    while True:
        state, data, hp = make_state(n=8, p=2, seed=seed)
        if state.samples.n_clusters() == 4:
            break
        seed += 1
    hp = Hyperparams(base_mean=0.0, base_var=1.0)  # rho prior Beta(0.2, 199.8)
    rng = np.random.default_rng(1)
    for fill, want_a, want_b in [(0.0, 0.2, 203.8), (0.7, 4.2, 199.8)]:
        for cid in state.samples.cluster_ids():
            state.incl_prob[cid][0] = fill
        draws = _rho_draws(state, hp, rng, 100_000)[:, 0]
        want_mean = want_a / (want_a + want_b)
        se = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - want_mean) < 4 * se


def test_eta_sq_prior_case():
    state, data, hp = manual_state(np.array([[0.0], [1.0]]), sigma_sq=[1.0])
    # all means are spike: conditional is the Inv-Gamma(0.5, 0.5) prior
    rng = np.random.default_rng(5)
    draws = np.array([update_eta_sq(state, hp, rng) for _ in range(100_000)])
    # compare 1/eta^2 ~ Gamma(0.5, rate 0.5): mean 1, var 2
    inv = 1.0 / draws
    se = inv.std() / math.sqrt(len(inv))
    assert abs(inv.mean() - 1.0) < 4 * se


def test_eta_sq_counts_unique_values_once():
    state, data, hp = manual_state(np.array([[0.0, 0.0], [1.0, 1.0]]), sigma_sq=[1.0, 1.0])
    cid = state.samples.cluster_ids()[0]
    # two components sharing one unique value 2.0 -> Inv-Gamma(1, 2.5)
    state.cluster_means[cid] = ClusterMeanVector(2, build_partition([[0, 1]], [2.0], 2))
    rng = np.random.default_rng(6)
    draws = np.array([update_eta_sq(state, hp, rng) for _ in range(200_000)])
    inv = 1.0 / draws  # Gamma(shape 1, rate 2.5): mean 0.4
    se = inv.std() / math.sqrt(len(inv))
    assert abs(inv.mean() - 1.0 / 2.5) < 4 * se


def test_forward_marginal_inclusion_rate():
    """Forward-simulating the hierarchy reproduces the marginalized prior
    inclusion probability E[rho] * a/(a+b)."""
    hp = Hyperparams(base_mean=0.0, base_var=1.0, rho_a=2.0, rho_b=6.0)
    rng = np.random.default_rng(7)
    hits = 0
    trials = 200_000
    for _ in range(trials):
        rho = rng.beta(hp.rho_a, hp.rho_b)
        if rng.random() < rho:
            pi = rng.beta(hp.slab_a, hp.slab_b)
        else:
            pi = 0.0
        if rng.random() < pi:
            hits += 1
    want = (hp.rho_a / (hp.rho_a + hp.rho_b)) * hp.slab_a / (hp.slab_a + hp.slab_b)
    se = math.sqrt(want * (1 - want) / trials)
    assert abs(hits / trials - want) < 4 * se
