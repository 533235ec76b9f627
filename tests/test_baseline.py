import math

import mpmath
import numpy as np
import pytest

from sparseclust.baseline import _MeanStep, _VarStep, step_baseline_means, step_baseline_vars
from sparseclust.model import Hyperparams

from conftest import manual_state

mpmath.mp.dps = 40


def _logits_without(step, part, j):
    """Attribute j's log weights (live clusters in creation order, then a new
    cluster) with j taken out of its cluster, from the step's own logit
    function."""
    labels, k = part.labels, part.n_clusters()
    others = np.arange(len(labels)) != j
    counts = np.bincount(labels[others], minlength=k)
    stats = np.zeros(k, dtype=step.items.dtype)
    np.add.at(stats, labels[others], step.items[others])
    live = counts > 0
    return np.append(step.logits(j, counts[live], stats[live]), step.new_logw[j])


def _mean_logits_without(state, data, hp, j):
    return _logits_without(_MeanStep(state, data, hp), state.mean_part, j)


def _var_logits_without(state, data, hp, j):
    return _logits_without(_VarStep(state, data, hp), state.var_part, j)


def _slot_view_values(step, part, rng):
    return step.values(part.labels, part.counts, rng)


def test_single_attribute_always_own_cluster():
    y = np.array([[0.4], [1.2], [-0.3]])
    state, data, hp = manual_state(y, sigma_sq=[0.5])
    rng = np.random.default_rng(0)
    step_baseline_means(state, data, hp, rng)
    assert state.mean_part.n_clusters() == 1
    step_baseline_vars(state, data, hp, rng)
    assert state.var_part.n_clusters() == 1


def test_mean_assignment_weights_normalize(tiny_state):
    state, data, hp = tiny_state
    logw = _mean_logits_without(state, data, hp, 1)
    probs = np.exp(logw - logw.max())
    probs /= probs.sum()
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_mean_assignment_matches_quadrature_posterior():
    """Two attributes: join-vs-new odds against the exact 2-term posterior
    computed by numerical integration of the full column likelihood."""
    rng = np.random.default_rng(8)
    n = 3
    y = rng.normal(0.3, 0.6, size=(n, 2))
    sig = [0.4, 0.7]
    hp = Hyperparams(base_mean=0.1, base_var=1.3)
    state, data, hp = manual_state(y, sigma_sq=sig, hp=hp)
    state.conc_mean = 0.8

    logw = _mean_logits_without(state, data, hp, 1)
    assert len(logw) == 2  # attribute 0's cluster is the only survivor
    my_log_odds = logw[0] - logw[1]

    def col_lik(col, mu, s2):
        out = mpmath.mpf(1)
        for v in col:
            out *= mpmath.exp(-(mpmath.mpf(v) - mu) ** 2 / (2 * s2)) / mpmath.sqrt(
                2 * mpmath.pi * s2
            )
        return out

    prior = lambda mu: mpmath.exp(
        -(mu - hp.base_mean) ** 2 / (2 * hp.base_var)
    ) / mpmath.sqrt(2 * mpmath.pi * hp.base_var)
    pts = [-mpmath.inf, -2, 0, 2, mpmath.inf]
    joint_join = mpmath.quad(
        lambda mu: col_lik(y[:, 0], mu, sig[0]) * col_lik(y[:, 1], mu, sig[1]) * prior(mu), pts
    )
    marg_0 = mpmath.quad(lambda mu: col_lik(y[:, 0], mu, sig[0]) * prior(mu), pts)
    marg_1 = mpmath.quad(lambda mu: col_lik(y[:, 1], mu, sig[1]) * prior(mu), pts)
    # join weight: 1 * p(col1 | col0 same cluster); new: conc * p(col1 | fresh draw)
    oracle_log_odds = float(
        mpmath.log(joint_join / marg_0) - mpmath.log(state.conc_mean * marg_1)
    )
    assert my_log_odds == pytest.approx(oracle_log_odds, abs=1e-10)


def test_identical_columns_cocluster_above_prior():
    y = np.tile(np.array([[0.5], [0.9], [0.2]]), (1, 2))
    state, data, hp = manual_state(y, sigma_sq=[2.0, 2.0])
    state.conc_mean = 1.0
    logw = _mean_logits_without(state, data, hp, 1)
    p_join = 1.0 / (1.0 + math.exp(logw[1] - logw[0]))
    assert p_join > 1.0 / (1.0 + state.conc_mean)


def test_mean_value_resample_moments():
    # One cluster of one attribute, n=2: posterior precision and mean by hand.
    y = np.array([[1.0], [3.0]])
    sig = [0.5]
    hp = Hyperparams(base_mean=0.0, base_var=2.0)
    state, data, hp = manual_state(y, sigma_sq=sig, hp=hp)
    v = 1.0 / hp.base_var + 2.0 / sig[0]
    u = (hp.base_mean / hp.base_var + y[:, 0].sum() / sig[0]) / v

    rng = np.random.default_rng(3)
    step = _MeanStep(state, data, hp)
    draws = np.empty(100_000)
    for t in range(len(draws)):
        (draws[t],) = _slot_view_values(step, state.mean_part, rng)
    se_mean = draws.std() / math.sqrt(len(draws))
    assert abs(draws.mean() - u) < 4 * se_mean
    # variance check: SE(var) ~ var * sqrt(2/(n-1))
    se_var = draws.var() * math.sqrt(2.0 / (len(draws) - 1))
    assert abs(draws.var() - 1.0 / v) < 4 * se_var


def test_var_assignment_matches_quadrature_posterior():
    rng = np.random.default_rng(21)
    n = 3
    y = rng.normal(0.0, 0.8, size=(n, 2))
    hp = Hyperparams(base_mean=0.0, base_var=1.0, var_shape=1.2, var_rate=0.7)
    state, data, hp = manual_state(y, sigma_sq=[1.0, 1.0], hp=hp)
    state.conc_var = 1.4

    logw = _var_logits_without(state, data, hp, 1)
    assert len(logw) == 2
    my_log_odds = logw[0] - logw[1]

    # z equals y here (baseline means are zero, shifts are zero)
    def col_lik(col, s2):
        out = mpmath.mpf(1)
        for v in col:
            out *= mpmath.exp(-mpmath.mpf(v) ** 2 / (2 * s2)) / mpmath.sqrt(2 * mpmath.pi * s2)
        return out

    def ig_prior(s2):
        a, b = hp.var_shape, hp.var_rate
        return b**a / mpmath.gamma(a) * s2 ** (-a - 1) * mpmath.exp(-b / s2)

    pts = [mpmath.mpf("1e-6"), 0.1, 0.5, 2, 10, 100, mpmath.inf]
    joint = mpmath.quad(lambda s2: col_lik(y[:, 0], s2) * col_lik(y[:, 1], s2) * ig_prior(s2), pts)
    m0 = mpmath.quad(lambda s2: col_lik(y[:, 0], s2) * ig_prior(s2), pts)
    m1 = mpmath.quad(lambda s2: col_lik(y[:, 1], s2) * ig_prior(s2), pts)
    oracle_log_odds = float(mpmath.log(joint / m0) - mpmath.log(state.conc_var * m1))
    assert my_log_odds == pytest.approx(oracle_log_odds, abs=1e-10)


def test_var_assignment_scaling_consistency():
    """Scaling the residuals rescales the weights exactly as the closed form
    predicts (re-evaluated directly at both scales)."""
    rng = np.random.default_rng(4)
    y = rng.normal(0.0, 1.0, size=(4, 2))
    for scale in (1.0, 3.0):
        state, data, hp = manual_state(y * scale, sigma_sq=[1.0, 1.0])
        logw = _var_logits_without(state, data, hp, 1)
        ssq = ((y * scale) ** 2).sum(axis=0)
        n = 4
        u = hp.var_shape + n / 2.0
        v = hp.var_rate + ssq[0] / 2.0
        want_join = (
            math.log(1.0) + u * math.log(v) - math.lgamma(u)
            + math.lgamma(u + n / 2.0) - (u + n / 2.0) * math.log(v + ssq[1] / 2.0)
        )
        want_new = (
            math.log(state.conc_var)
            + hp.var_shape * math.log(hp.var_rate) - math.lgamma(hp.var_shape)
            + math.lgamma(hp.var_shape + n / 2.0)
            - (hp.var_shape + n / 2.0) * math.log(hp.var_rate + ssq[1] / 2.0)
        )
        assert logw[0] == pytest.approx(want_join, rel=1e-12)
        assert logw[1] == pytest.approx(want_new, rel=1e-12)


def test_var_value_resample_trivial_params_and_moments():
    # n=6 keeps the posterior variance finite for the 4-SE moment check.
    y = np.ones((6, 1))
    state, data, hp = manual_state(y, sigma_sq=[1.0])
    shape = hp.var_shape + 6 / 2.0  # 3.5
    rate = hp.var_rate + 6 / 2.0  # 3.5

    rng = np.random.default_rng(9)
    step = _VarStep(state, data, hp)
    draws = np.empty(100_000)
    for t in range(len(draws)):
        (draws[t],) = _slot_view_values(step, state.var_part, rng)
    want_mean = rate / (shape - 1.0)
    se = draws.std() / math.sqrt(len(draws))
    assert abs(draws.mean() - want_mean) < 4 * se


def test_uninformative_likelihood_reduces_to_crp_prior():
    """With enormous noise variance the assignment kernel samples the CRP
    prior; the average cluster count must match the analytic expectation."""
    rng = np.random.default_rng(14)
    p, n, conc = 40, 2, 5.0
    y = rng.normal(size=(n, p))
    state, data, hp = manual_state(y, sigma_sq=[1e12] * p)
    state.conc_mean = conc

    ks = []
    for _ in range(3000):
        step_baseline_means(state, data, hp, rng)
        ks.append(state.mean_part.n_clusters())
    expect = sum(conc / (conc + i) for i in range(p))
    got = np.mean(ks[100:])
    assert abs(got - expect) / expect < 0.05
