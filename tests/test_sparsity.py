import math

import mpmath
import numpy as np
import pytest

from sparseclust.clusters import ClusterMeanVector
from sparseclust.diagnostics import batch_means_se, draw_prior_mean
from sparseclust.model import Hyperparams
from sparseclust.sparsity import (
    slab_coef,
    spike_zero_weight,
    step_pi,
    step_rho,
    update_eta_sq,
)

from conftest import build_partition, make_state, manual_state

mpmath.mp.dps = 30


def _fixed_means(pattern, hp, attr_prob=0.5):
    """A state of K singleton sample clusters whose means are fixed by the
    K x p boolean ``pattern``: cluster k's mean is 0.7 where it is True and
    zero elsewhere."""
    pattern = np.asarray(pattern, dtype=bool)
    k, p = pattern.shape
    state, _data, _hp = manual_state(np.zeros((k, p)), sigma_sq=[1.0] * p, hp=hp,
                                     attr_prob=attr_prob)
    state.samples = build_partition([[i] for i in range(k)])
    state.cluster_means = {
        cid: ClusterMeanVector(p, build_partition([np.flatnonzero(row).tolist()], [0.7], p)
                               if row.any() else None)
        for cid, row in zip(state.samples.cluster_ids(), pattern)
    }
    return state


def test_pi_nonzero_mean_is_slab_beta():
    """A nonzero mean component's pi is always on the slab (Beta) branch,
    whatever rho: an attribute nonzero in every cluster counts all K."""
    hp = Hyperparams(base_mean=0.0, base_var=1.0)
    state = _fixed_means(np.ones((4, 6), dtype=bool), hp)
    rng = np.random.default_rng(0)
    for rho in (1e-9, 0.3, 1.0 - 1e-9):
        state.attr_prob[:] = rho
        for _ in range(50):
            assert step_pi(state, hp, rng).tolist() == [4] * 6


def test_pi_zero_mean_zero_rho_is_spike():
    hp = Hyperparams(base_mean=0.0, base_var=1.0)
    state = _fixed_means(np.zeros((3, 100), dtype=bool), hp, attr_prob=0.0)
    rng = np.random.default_rng(1)
    assert (step_pi(state, hp, rng) == 0).all()


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
    """A zero mean component's pi is on the slab branch with probability
    1 - w0(rho)."""
    hp = Hyperparams(base_mean=0.0, base_var=1.0)
    k, p, rho = 5, 20_000, 0.5
    state = _fixed_means(np.zeros((k, p), dtype=bool), hp, attr_prob=rho)
    counts = step_pi(state, hp, np.random.default_rng(2))
    assert counts.min() >= 0 and counts.max() <= k
    w0 = spike_zero_weight(rho, hp.slab_a, hp.slab_b)
    se = math.sqrt(w0 * (1 - w0) / (k * p))
    assert abs(counts.mean() / k - (1 - w0)) < 4 * se


def test_update_pi_respects_mu_coupling(tiny_state):
    """Every count lies between the attribute's number of nonzero mean
    components and the number of clusters."""
    state, data, hp = tiny_state
    nonzero = sum(m.inner.labels >= 0 for m in state.cluster_means.values())
    assert nonzero.any()
    k_live = state.samples.n_clusters()
    rng = np.random.default_rng(3)
    for _ in range(200):
        counts = step_pi(state, hp, rng)
        assert (counts >= nonzero).all() and (counts <= k_live).all()


def _rho_draws(state, hp, rng, count, n_active):
    """Repeated step_rho draws of the whole attr_prob vector."""
    out = np.empty((count, state.p))
    for t in range(count):
        step_rho(state, hp, rng, n_active)
        out[t] = state.attr_prob
    return out


def test_update_rho_posterior_params():
    state, data, hp = make_state(n=6, p=2, seed=29, require_multi=True)
    k_live = state.samples.n_clusters()
    n_active = np.array([1, k_live - 1])
    rng = np.random.default_rng(0)
    draws = _rho_draws(state, hp, rng, 100_000, n_active)
    for j in range(2):
        want_mean = (hp.rho_a + n_active[j]) / (hp.rho_a + hp.rho_b + k_live)
        se = draws[:, j].std() / math.sqrt(len(draws))
        assert abs(draws[:, j].mean() - want_mean) < 4 * se


def test_update_rho_extreme_counts():
    """Boundary counts: no active cluster gives Beta(0.2, 203.8), all four
    active give Beta(4.2, 199.8) under the sparse defaults with K=4."""
    seed = 0
    while True:
        state, data, hp = make_state(n=8, p=2, seed=seed)
        if state.samples.n_clusters() == 4:
            break
        seed += 1
    hp = Hyperparams(base_mean=0.0, base_var=1.0)  # rho prior Beta(0.2, 199.8)
    rng = np.random.default_rng(1)
    for fill, want_a, want_b in [(0, 0.2, 203.8), (4, 4.2, 199.8)]:
        draws = _rho_draws(state, hp, rng, 100_000, np.full(2, fill))[:, 0]
        want_mean = want_a / (want_a + want_b)
        se = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - want_mean) < 4 * se


PAIR_SWEEPS = 20_000
PAIR_BOUND = 4.0


@pytest.mark.parametrize("rho_prior", [(0.2, 199.8), (2.0, 2.0)])
def test_pi_rho_pair_matches_quadrature_posterior(rho_prior):
    """Iterating step_pi then step_rho with the means fixed leaves rho_j at
    its posterior given the means, with pi integrated out:
    Beta(rho; rho_a, rho_b) s^nnz (1 - s)^(K - nnz), s = rho a / (a + b),
    for an attribute nonzero in no, some and all of K = 4 clusters. Each
    chain mean is bounded by its batch-means z against the quadrature mean.
    The seed, sweep count and bound were fixed before the first run."""
    hp = Hyperparams(base_mean=0.0, base_var=1.0, rho_a=rho_prior[0], rho_b=rho_prior[1])
    pattern = np.array([[0, 1, 1], [0, 1, 1], [0, 0, 1], [0, 0, 1]], dtype=bool)
    k = len(pattern)
    state = _fixed_means(pattern, hp)
    rng = np.random.default_rng(0)
    draws = np.empty((PAIR_SWEEPS, pattern.shape[1]))
    for t in range(PAIR_SWEEPS):
        step_rho(state, hp, rng, step_pi(state, hp, rng))
        draws[t] = state.attr_prob

    coef = hp.slab_a / (hp.slab_a + hp.slab_b)
    ra, rb = mpmath.mpf(hp.rho_a), mpmath.mpf(hp.rho_b)
    for j, nnz in enumerate(pattern.sum(axis=0).tolist()):
        def density(r, moment):
            s = r * coef
            return r ** moment * r ** (ra - 1) * (1 - r) ** (rb - 1) * s ** nnz * (1 - s) ** (k - nnz)

        points = [0, 1e-4, 1e-3, 1e-2, 0.1, 1]
        want = float(mpmath.quad(lambda r: density(r, 1), points)
                     / mpmath.quad(lambda r: density(r, 0), points))
        z = (draws[:, j].mean() - want) / batch_means_se(draws[:, j])
        assert abs(z) < PAIR_BOUND, (j, nnz, draws[:, j].mean(), want, z)


def test_eta_sq_prior_case():
    state, data, hp = manual_state(np.array([[0.0], [1.0]]), sigma_sq=[1.0])
    # all means are spike: conditional is the Inv-Gamma(0.5, 0.5) prior
    rng = np.random.default_rng(5)
    draws = np.empty(100_000)
    for t in range(len(draws)):
        update_eta_sq(state, hp, rng)
        draws[t] = state.slab_var
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
    draws = np.empty(200_000)
    for t in range(len(draws)):
        update_eta_sq(state, hp, rng)
        draws[t] = state.slab_var
    inv = 1.0 / draws  # Gamma(shape 1, rate 2.5): mean 0.4
    se = inv.std() / math.sqrt(len(inv))
    assert abs(inv.mean() - 1.0 / 2.5) < 4 * se


def test_forward_marginal_inclusion_rate():
    """Forward-simulating the hierarchy rho -> pi -> inclusion reproduces the
    marginalized prior inclusion probability E[rho] * a/(a+b), and so does
    the package's collapsed draw, ``draw_prior_mean`` with pi integrated
    out."""
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

    # Given rho, components are nonzero independently, so the share over
    # draws x p components is binomial.
    rng = np.random.default_rng(7)
    draws, p = 200, 1000
    nonzero = 0
    for _ in range(draws):
        rho = rng.beta(hp.rho_a, hp.rho_b, size=p)
        nonzero += np.count_nonzero(draw_prior_mean(slab_coef(hp) * rho, 1.0, 1.0, rng).mu())
    se = math.sqrt(want * (1 - want) / (draws * p))
    assert abs(nonzero / (draws * p) - want) < 4 * se
