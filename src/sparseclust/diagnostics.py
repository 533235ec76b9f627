"""Sampler diagnostics: the batch-means standard error of a correlated
sequence, and the acceptance of birth moves under the sequential proposal
against the prior one, ``draw_prior_mean``.

The joint-distribution test's simulators (Geweke, JASA 2004) are test
support and live in ``tests/geweke.py``, which builds on these.
"""

import math

import numpy as np

from .clusters import BirthDeathPass, ClusterMeanVector
from .partition import crp_draw
from .sparsity import slab_coef

# Batches of a batch-means standard error.
N_BATCHES = 100


def batch_means_se(x):
    """Standard error of the mean of a correlated sequence via batch means,
    over ``N_BATCHES`` batches."""
    m = len(x) // N_BATCHES
    if m < 2:
        raise ValueError(f"sequence too short for {N_BATCHES} batches of at least 2")
    b = np.asarray(x[: m * N_BATCHES]).reshape(N_BATCHES, m).mean(axis=1)
    return float(b.std(ddof=1) / math.sqrt(N_BATCHES))


def draw_prior_mean(s, conc_inner, slab_var, rng):
    """Draw a mean vector from its prior, with the inclusion probabilities
    integrated out: component j is nonzero with probability ``s[j]``
    (rho_j slab_a / (slab_a + slab_b)), and the nonzero components share
    N(0, slab_var) values through a CRP with concentration ``conc_inner``.
    """
    return ClusterMeanVector(len(s), crp_draw(
        len(s), conc_inner, rng, lambda: math.sqrt(slab_var) * rng.standard_normal(), s))


def measure_birth_acceptance(state, data, hp, rng, attempts, proposal="sequential"):
    """Per-attempt log MH ratios of birth moves from a frozen state.

    Cycles over non-singleton samples; per attempt a candidate mean is drawn
    (sequentially, from a fresh row of p + 1 uniforms as ``mh_birth_move``
    reads it, or from the prior) and the move's log ratio log r is scored as
    ``mh_birth_move`` scores it, from the proposal's W = F Q0 / Q: the
    sequential walk's log W, or, for a prior draw, whose Q is Q0, its log
    likelihood. The attempt accepts with probability min(1, r). The state is
    never mutated.
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
            _mean, log_w = bd.propose(i, rng.random(data.p + 1), rng)
        else:
            log_w = bd.loglik(i, draw_prior_mean(
                slab_coef(hp) * state.attr_prob, state.conc_inner, state.slab_var, rng))
        log_f_old = bd.loglik_column(state, state.samples.cluster_of(i)).item(i)
        log_ratios[t] = bd.birth_log_ratio(state, log_f_old, log_w)
    return log_ratios
