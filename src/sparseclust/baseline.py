"""DP-clustered updates of the attribute baseline means and variances.

Both updates follow the same shape: per attribute, resample the cluster
assignment from a collapsed predictive (conditioning on the other members
of each cluster), then redraw every cluster's unique value from its
conjugate posterior.

A step works on the slot arrays of its partition (see ``partition.py``):
slot t is the t-th live cluster in creation order, with its member count
and its members' sufficient statistics summed in attribute order, and each
attribute holds its slot label. A cluster that its last attribute leaves
gives up its slot and later slots move down one, so slot order stays
creation order; a new cluster takes the next slot. An attribute's log weights are one vector
expression over the live slots plus a new-cluster weight precomputed for all
attributes; log c and the variance step's gammaln terms of a c-member cluster
come from count-indexed tables built once per step. All values are then
redrawn in one vector draw and the partition is written back once. Draws,
their order and their arithmetic match a walk over the clusters dict, one
attribute at a time, so a seed gives the same chain.
"""

import math

import numpy as np
from scipy.special import gammaln

from .densities import LOG_2PI, sample_log_categorical


def _log_count_table(p):
    """log c for member counts c = 0..p (entry 0 unused, set to 0)."""
    return np.log(np.maximum(np.arange(p + 1.0), 1.0))


def _run_step(part, step, rng, where):
    """Reseat every attribute of ``part`` in order, then redraw every value
    and write the partition back.

    ``step.items[j]`` is attribute j's sufficient statistic (one number),
    ``step.logits(j, counts, stats)`` its log weights of joining the live
    slots, ``step.new_logw[j]`` its log weight of a new cluster and
    ``step.values(labels, counts, rng)`` draws the values of the final slots.
    """
    ids = part.cluster_ids()
    labels = part.labels.copy()
    items = step.items.tolist()
    p = len(labels)
    k = len(ids)
    cnt = np.bincount(labels, minlength=p)
    stat = np.zeros(p, dtype=step.items.dtype)
    np.add.at(stat, labels, step.items)
    logw = np.empty(p + 1)
    for j in range(p):
        s = labels[j]
        if cnt[s] == 1:
            cnt[s:k - 1] = cnt[s + 1:k]
            stat[s:k - 1] = stat[s + 1:k]
            labels[labels > s] -= 1
            del ids[s]
            k -= 1
        else:
            cnt[s] -= 1
            stat[s] -= items[j]
        logw[:k] = step.logits(j, cnt[:k], stat[:k])
        logw[k] = step.new_logw[j]
        t = sample_log_categorical(logw[:k + 1], rng, where=f"{where} j={j}")
        if t == k:
            ids.append(None)
            cnt[t] = 1
            stat[t] = items[j]
            k += 1
        else:
            cnt[t] += 1
            stat[t] += items[j]
        labels[j] = t
    part.set_slots(ids, labels, cnt[:k], step.values(labels, cnt[:k], rng))


def _residual_col_means(state, data):
    """Per-attribute mean of y - mu_ij over samples (the step-1 statistic)."""
    total = data.y.sum(axis=0)
    # Summed one cluster at a time: a numpy reduction would change the stream.
    for cid, count in zip(state.samples.cluster_ids(), state.samples.sizes()):
        total = total - count * state.cluster_means[cid].mu()
    return total / data.n


class _MeanStep:
    """The baseline-mean step's terms. Attribute j contributes precision
    w_j = n / sigma_j^2 and statistic q_j = w_j * rbar_j to its cluster,
    carried as the one number q_j + i w_j: complex sums add the two parts
    separately, each exactly as a float sum would."""

    def __init__(self, state, data, hp):
        sigma_sq = state.var_part.values_vector()
        rbar = _residual_col_means(state, data)
        w = data.n / sigma_sq
        self.items = data.n * rbar / sigma_sq + 1j * w
        self.prior_prec = 1.0 / hp.base_var
        self.prior_stat = hp.base_mean / hp.base_var
        self.log_count = _log_count_table(data.p)
        obs_var = 1.0 / w  # sigma_j^2 / n
        self.obs_var = obs_var.tolist()
        self.rbar = rbar.tolist()
        log_conc = math.log(state.conc_mean)
        self.new_logw = [
            log_conc - 0.5 * (LOG_2PI + math.log(pv) + d * d / pv)
            for pv, d in zip((hp.base_var + obs_var).tolist(), (rbar - hp.base_mean).tolist())
        ]

    def logits(self, j, counts, stats):
        v = self.prior_prec + stats.imag
        u = (self.prior_stat + stats.real) / v
        pv = 1.0 / v + self.obs_var[j]
        d = self.rbar[j] - u
        return self.log_count.take(counts) - 0.5 * (LOG_2PI + np.log(pv) + d * d / pv)

    def values(self, labels, counts, rng):
        """One draw of every cluster value from its normal posterior."""
        prec = np.full(len(counts), self.prior_prec)
        np.add.at(prec, labels, self.items.imag)
        stat = np.full(len(counts), self.prior_stat)
        np.add.at(stat, labels, self.items.real)
        return stat / prec + np.sqrt(1.0 / prec) * rng.standard_normal(len(counts))


def step_baseline_means(state, data, hp, rng):
    _run_step(state.mean_part, _MeanStep(state, data, hp), rng, "baseline-mean assignment")


def _residual_sq_colsums(state, data):
    """Per-attribute sum over samples of (y - mu_j - mu_ij)^2."""
    mu_base = state.mean_part.values_vector()
    out = np.zeros(data.p)
    for cid, mem in state.samples.members().items():
        d = data.y[mem] - mu_base - state.cluster_means[cid].mu()
        out += (d * d).sum(axis=0)
    return out


class _VarStep:
    """The baseline-variance step's terms. Attribute j contributes half its
    residual sum of squares over the n samples, ssq_j / 2, to its cluster."""

    def __init__(self, state, data, hp):
        self.items = 0.5 * _residual_sq_colsums(state, data)
        self.hp = hp
        self.n = data.n
        half_n = 0.5 * data.n
        # Count-indexed terms of a cluster of c members: log c, its posterior
        # shape u, gammaln(u), gammaln(u + n/2) and u + n/2.
        shape = hp.var_shape + np.arange(data.p + 1.0) * half_n
        self.tables = np.stack((
            _log_count_table(data.p), shape, gammaln(shape), gammaln(shape + half_n),
            shape + half_n,
        ))
        shape1 = hp.var_shape + half_n
        base = (
            math.log(state.conc_var)
            + hp.var_shape * math.log(hp.var_rate) - gammaln(hp.var_shape)
            + gammaln(shape1)
        )
        self.half_ssq = self.items.tolist()
        self.new_logw = [base - shape1 * math.log(hp.var_rate + hs) for hs in self.half_ssq]

    def logits(self, j, counts, stats):
        log_c, u, gl_u, gl_u1, u1 = self.tables.take(counts, axis=1)
        v = self.hp.var_rate + stats
        return log_c + u * np.log(v) - gl_u + gl_u1 - u1 * np.log(v + self.half_ssq[j])

    def values(self, labels, counts, rng):
        """One draw of every cluster value from its inverse-gamma posterior."""
        rate = np.full(len(counts), self.hp.var_rate)
        np.add.at(rate, labels, self.items)
        return rate / rng.gamma(self.hp.var_shape + counts * self.n / 2.0)


def step_baseline_vars(state, data, hp, rng):
    _run_step(state.var_part, _VarStep(state, data, hp), rng, "baseline-var assignment")
