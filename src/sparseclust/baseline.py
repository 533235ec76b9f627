"""DP-clustered updates of the attribute baseline means and variances.

Both updates follow the same shape: per attribute, resample the cluster
assignment from a collapsed predictive (conditioning on the other members
of each cluster), then redraw every cluster's unique value from its
conjugate posterior.
"""

import math

import numpy as np
from scipy.special import gammaln

from .densities import LOG_2PI, sample_log_categorical


def _residual_col_means(state, data):
    """Per-attribute mean of y - mu_ij over samples (the step-1 statistic)."""
    total = data.y.sum(axis=0)
    for cid, cl in state.samples.clusters.items():
        total = total - cl[0] * state.cluster_means[cid].mu()
    return total / data.n


class _MeanStepCtx:
    """Shared per-sweep quantities for the baseline-mean assignment update."""

    __slots__ = ("rbar", "q", "w", "stat_q", "stat_w", "n")

    def __init__(self, state, data):
        sigma_sq = state.var_part.values_vector()
        self.n = data.n
        self.rbar = _residual_col_means(state, data)
        self.q = data.n * self.rbar / sigma_sq
        self.w = data.n / sigma_sq
        self.stat_q = {}
        self.stat_w = {}
        for j, cid in enumerate(state.mean_part.assignments):
            self.stat_q[cid] = self.stat_q.get(cid, 0.0) + self.q[j]
            self.stat_w[cid] = self.stat_w.get(cid, 0.0) + self.w[j]


def _mean_assignment_logits(state, hp, ctx, j):
    """Unnormalized log weights over (live clusters..., new cluster) for a
    detached attribute j."""
    part = state.mean_part
    obs_var = 1.0 / ctx.w[j]  # sigma_j^2 / n
    rb = ctx.rbar[j]
    cids = list(part.clusters.keys())
    k = len(cids)
    counts = np.fromiter((part.clusters[c][0] for c in cids), dtype=float, count=k)
    sw = np.fromiter((ctx.stat_w[c] for c in cids), dtype=float, count=k)
    sq = np.fromiter((ctx.stat_q[c] for c in cids), dtype=float, count=k)

    logw = np.empty(k + 1)
    v = 1.0 / hp.base_var + sw
    u = (hp.base_mean / hp.base_var + sq) / v
    pv = 1.0 / v + obs_var
    d = rb - u
    logw[:k] = np.log(counts) - 0.5 * (LOG_2PI + np.log(pv) + d * d / pv)
    pv_new = hp.base_var + obs_var
    d_new = rb - hp.base_mean
    logw[k] = math.log(state.conc_mean) - 0.5 * (
        LOG_2PI + math.log(pv_new) + d_new * d_new / pv_new
    )
    return cids, logw


def update_baseline_mean_assignment(state, data, hp, j, rng, ctx):
    """Resample the baseline-mean cluster of attribute j; returns the new id."""
    part = state.mean_part
    old = part.detach(j)
    if old in part.clusters:
        ctx.stat_q[old] -= ctx.q[j]
        ctx.stat_w[old] -= ctx.w[j]
    else:
        ctx.stat_q.pop(old, None)
        ctx.stat_w.pop(old, None)

    cids, logw = _mean_assignment_logits(state, hp, ctx, j)
    k = len(cids)
    choice = sample_log_categorical(logw, rng, where=f"baseline-mean assignment j={j}")
    if choice < k:
        cid = cids[choice]
        part.attach(j, cid)
        ctx.stat_q[cid] += ctx.q[j]
        ctx.stat_w[cid] += ctx.w[j]
    else:
        # Placeholder payload: the singleton posterior mean. All values are
        # redrawn in the value pass before anything reads them.
        v = 1.0 / hp.base_var + ctx.w[j]
        u = (hp.base_mean / hp.base_var + ctx.q[j]) / v
        cid = part.attach_new(j, u)
        ctx.stat_q[cid] = ctx.q[j]
        ctx.stat_w[cid] = ctx.w[j]
    return cid


def resample_baseline_mean_values(state, hp, rng, ctx):
    """Redraw every baseline-mean cluster value from its normal posterior.

    Reads only the per-attribute ``ctx.q`` and ``ctx.w``, which the
    assignment pass leaves unchanged.
    """
    for cid, mem in state.mean_part.members().items():
        v = 1.0 / hp.base_var
        s = hp.base_mean / hp.base_var
        for j in mem:
            v += ctx.w[j]
            s += ctx.q[j]
        u = s / v
        state.mean_part.set_value(cid, u + math.sqrt(1.0 / v) * rng.standard_normal())


def step_baseline_means(state, data, hp, rng):
    ctx = _MeanStepCtx(state, data)
    for j in range(data.p):
        update_baseline_mean_assignment(state, data, hp, j, rng, ctx)
    resample_baseline_mean_values(state, hp, rng, ctx)


def _residual_sq_colsums(state, data):
    """Per-attribute sum over samples of (y - mu_j - mu_ij)^2."""
    mu_base = state.mean_part.values_vector()
    out = np.zeros(data.p)
    for cid, mem in state.samples.members().items():
        d = data.y[mem] - mu_base - state.cluster_means[cid].mu()
        out += (d * d).sum(axis=0)
    return out


class _VarStepCtx:
    __slots__ = ("ssq", "stat", "n")

    def __init__(self, state, data):
        self.n = data.n
        self.ssq = _residual_sq_colsums(state, data)
        self.stat = {}
        for j, cid in enumerate(state.var_part.assignments):
            self.stat[cid] = self.stat.get(cid, 0.0) + self.ssq[j]


def _var_assignment_logits(state, hp, ctx, j):
    """Unnormalized log weights over (live clusters..., new cluster) for a
    detached attribute j."""
    part = state.var_part
    half_n = 0.5 * ctx.n
    half_sj = 0.5 * ctx.ssq[j]
    cids = list(part.clusters.keys())
    k = len(cids)
    counts = np.fromiter((part.clusters[c][0] for c in cids), dtype=float, count=k)
    stat = np.fromiter((ctx.stat[c] for c in cids), dtype=float, count=k)

    logw = np.empty(k + 1)
    u = hp.var_shape + counts * half_n
    v = hp.var_rate + 0.5 * stat
    logw[:k] = (
        np.log(counts) + u * np.log(v) - gammaln(u)
        + gammaln(u + half_n) - (u + half_n) * np.log(v + half_sj)
    )
    logw[k] = (
        math.log(state.conc_var)
        + hp.var_shape * math.log(hp.var_rate) - gammaln(hp.var_shape)
        + gammaln(hp.var_shape + half_n)
        - (hp.var_shape + half_n) * math.log(hp.var_rate + half_sj)
    )
    return cids, logw


def update_baseline_var_assignment(state, data, hp, j, rng, ctx):
    """Resample the baseline-variance cluster of attribute j."""
    part = state.var_part
    old = part.detach(j)
    if old in part.clusters:
        ctx.stat[old] -= ctx.ssq[j]
    else:
        ctx.stat.pop(old, None)

    cids, logw = _var_assignment_logits(state, hp, ctx, j)
    k = len(cids)
    half_n = 0.5 * ctx.n
    half_sj = 0.5 * ctx.ssq[j]
    choice = sample_log_categorical(logw, rng, where=f"baseline-var assignment j={j}")
    if choice < k:
        cid = cids[choice]
        part.attach(j, cid)
        ctx.stat[cid] += ctx.ssq[j]
    else:
        # Placeholder: posterior mode; redrawn in the value pass.
        cid = part.attach_new(j, (hp.var_rate + half_sj) / (hp.var_shape + half_n + 1.0))
        ctx.stat[cid] = ctx.ssq[j]
    return cid


def resample_baseline_var_values(state, hp, rng, ctx):
    """Redraw every baseline-variance cluster value from its inverse-gamma
    posterior. Reads only ``ctx.n`` and the per-attribute ``ctx.ssq``, which
    the assignment pass leaves unchanged."""
    for cid, mem in state.var_part.members().items():
        shape = hp.var_shape + len(mem) * ctx.n / 2.0
        rate = hp.var_rate
        for j in mem:
            rate += 0.5 * ctx.ssq[j]
        state.var_part.set_value(cid, rate / rng.gamma(shape))


def step_baseline_vars(state, data, hp, rng):
    ctx = _VarStepCtx(state, data)
    for j in range(data.p):
        update_baseline_var_assignment(state, data, hp, j, rng, ctx)
    resample_baseline_var_values(state, hp, rng, ctx)
