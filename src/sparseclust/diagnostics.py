"""Sampler diagnostics: joint-distribution (marginal-conditional vs
successive-conditional) comparison and proposal-efficiency measurement."""

import math

import numpy as np

from .chain import sweep
from .clusters import BirthDeathPass
from .forward import draw_data, draw_prior_mean, draw_state_from_prior
from .model import DataMatrix
from .sparsity import slab_coef

STATISTIC_NAMES = (
    "sample_clusters",
    "mean_clusters",
    "var_clusters",
    "mean_attr_prob",
    "slab_var",
    "conc_samples",
    "conc_inner",
    "mean_sq_shift",
)
# Batches of a batch-means standard error.
N_BATCHES = 100


def state_statistics(state):
    """The scalar functionals compared between the two simulators."""
    k = state.samples.n_clusters()
    inner = [m.inner for m in state.cluster_means.values()]
    values = np.concatenate([part.values for part in inner])
    counts = np.concatenate([part.counts for part in inner])
    ssq = float(counts @ (values * values))
    return (
        float(k),
        float(state.mean_part.n_clusters()),
        float(state.var_part.n_clusters()),
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


def batch_means_se(x):
    """Standard error of the mean of a correlated sequence via batch means,
    over ``N_BATCHES`` batches."""
    m = len(x) // N_BATCHES
    if m < 2:
        raise ValueError(f"sequence too short for {N_BATCHES} batches of at least 2")
    b = np.asarray(x[: m * N_BATCHES]).reshape(N_BATCHES, m).mean(axis=1)
    return float(b.std(ddof=1) / math.sqrt(N_BATCHES))


def geweke_z_scores(forward, successive):
    """Two-sample z per statistic; the successive side uses batch-means SEs
    to account for autocorrelation, the forward side is independent."""
    zs = {}
    for idx, name in enumerate(STATISTIC_NAMES):
        a = forward[:, idx]
        b = successive[:, idx]
        se_a = a.std(ddof=1) / math.sqrt(len(a))
        se_b = batch_means_se(b)
        zs[name] = float((a.mean() - b.mean()) / math.hypot(se_a, se_b))
    return zs


def measure_birth_acceptance(state, data, hp, rng, attempts, proposal="sequential"):
    """Per-attempt log MH ratios of birth moves from a frozen state.

    Cycles over non-singleton samples; per attempt a candidate mean is drawn
    (sequentially, from a fresh row of p + 1 uniforms as ``mh_birth_move``
    reads it, or from the prior) and the move's log ratio log r is scored as
    ``mh_birth_move`` scores it; the attempt accepts with probability
    min(1, r). The state is never mutated.
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

    log_ratios = np.empty(attempts)
    for t in range(attempts):
        i = eligible[t % len(eligible)]
        if proposal == "sequential":
            mean_new, log_q, log_q0 = bd.propose(i, rng.random(data.p + 1), rng)
        else:
            mean_new = draw_prior_mean(
                slab_coef(hp) * state.attr_prob, state.conc_inner, state.slab_var, rng)
            log_q = log_q0 = 0.0
        log_ratios[t] = bd.birth_log_ratio(state, i, bd.loglik(i, mean_new), log_q, log_q0)[0]
    return log_ratios
