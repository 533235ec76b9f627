"""Sampler diagnostics: joint-distribution (marginal-conditional vs
successive-conditional) comparison and proposal-efficiency measurement."""

import math

import numpy as np

from .chain import sweep
from .clusters import BirthDeathPass, sample_prior_mean
from .forward import draw_data, draw_state_from_prior
from .model import DataMatrix

STATISTIC_NAMES = (
    "sample_clusters",
    "mean_clusters",
    "mean_attr_prob",
    "slab_var",
    "conc_samples",
    "conc_inner",
    "mean_sq_shift",
)


def state_statistics(state):
    """The scalar functionals compared between the two simulators."""
    k = state.samples.n_clusters()
    ssq = 0.0
    for mean in state.cluster_means.values():
        # Summed in order, one value at a time; a numpy reduction rounds differently.
        for count, v in zip(mean.inner.sizes(), mean.inner.values.tolist()):
            ssq += count * v * v
    return (
        float(k),
        float(state.mean_part.n_clusters()),
        float(state.attr_prob.mean()),
        float(state.slab_var),
        float(state.conc_samples),
        float(state.conc_inner),
        ssq / (k * state.p),
    )


def marginal_conditional_samples(n, p, hp, draws, rng):
    """Independent forward draws of the statistics from the prior."""
    out = np.empty((draws, len(STATISTIC_NAMES)))
    for t in range(draws):
        state = draw_state_from_prior(n, p, hp, rng)
        out[t] = state_statistics(state)
    return out


def successive_conditional_samples(n, p, hp, draws, rng):
    """Statistics along the coupled chain: resample data given the state,
    then the state given the data by one full transition-kernel sweep."""
    state = draw_state_from_prior(n, p, hp, rng)
    data = DataMatrix(draw_data(state, rng))
    out = np.empty((draws, len(STATISTIC_NAMES)))
    for t in range(draws):
        sweep(state, data, hp, rng)
        out[t] = state_statistics(state)
        data.y[...] = draw_data(state, rng)
    return out


def batch_means_se(x, n_batches=100):
    """Standard error of the mean of a correlated sequence via batch means."""
    m = len(x) // n_batches
    if m < 2:
        raise ValueError("sequence too short for the requested batch count")
    b = np.asarray(x[: m * n_batches]).reshape(n_batches, m).mean(axis=1)
    return float(b.std(ddof=1) / math.sqrt(n_batches))


def geweke_z_scores(forward, successive, n_batches=100):
    """Two-sample z per statistic; the successive side uses batch-means SEs
    to account for autocorrelation, the forward side is independent."""
    zs = {}
    for idx, name in enumerate(STATISTIC_NAMES):
        a = forward[:, idx]
        b = successive[:, idx]
        se_a = a.std(ddof=1) / math.sqrt(len(a))
        se_b = batch_means_se(b, n_batches)
        zs[name] = float((a.mean() - b.mean()) / math.hypot(se_a, se_b))
    return zs


def measure_birth_acceptance(state, data, hp, rng, attempts, proposal="sequential"):
    """Average acceptance probability of birth moves from a frozen state.

    Cycles over non-singleton samples; per attempt a candidate mean is drawn
    (sequentially or from the prior) and the move's acceptance probability
    min(1, r) is accumulated, r scored as ``mh_birth_move`` scores it. The
    state is never mutated.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be at least 1, got {attempts}")
    if proposal not in ("sequential", "prior"):
        raise ValueError(f"unknown proposal kind {proposal!r}")
    bd = BirthDeathPass(
        data.y, state.mean_part.values_vector(), state.var_part.values_vector(), state, hp)
    eligible = [
        i for i in range(data.n)
        if state.samples.cluster_size(i) > 1
    ]
    if not eligible:
        raise ValueError("no non-singleton samples to attempt births from")

    total = 0.0
    for t in range(attempts):
        i = eligible[t % len(eligible)]
        if proposal == "sequential":
            prop = bd.propose(i, rng)
            mean_new, log_q, log_q0 = prop.mean, prop.log_q, prop.log_q0
        else:
            mean_new = sample_prior_mean(data.p, state, hp, rng)
            log_q = log_q0 = 0.0
        log_r = bd.birth_log_ratio(state, i, mean_new, log_q, log_q0)[0]
        total += 1.0 if log_r >= 0.0 else math.exp(log_r)
    return total / attempts
