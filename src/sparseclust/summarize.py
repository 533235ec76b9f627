"""Posterior summaries: cluster-count distribution, label alignment,
attribute selection, fitted-mean error, co-clustering."""

import math

import numpy as np

from .sparsity import spike_zero_weight


def k_posterior(trace):
    """Normalized frequency of the number of clusters; mode breaks ties low."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    ks, counts = np.unique(np.asarray(trace.ks), return_counts=True)
    hist = {int(k): c / len(trace.ks) for k, c in zip(ks, counts)}
    mode = int(ks[np.argmax(counts)])  # np.argmax takes the first (smallest K) on ties
    return hist, mode


def _min_cost_assignment(cost):
    """The column of each row in a minimum-cost assignment of the square
    matrix ``cost``, by shortest augmenting paths (Crouse 2016, IEEE Trans.
    Aerosp. Electron. Syst. 52:1679). Rows are added in order; each path
    search scans the unscanned columns from the highest index down, a
    scanned column swapped out by the last, and on an equal path cost
    prefers an unassigned column: the scan order and tie rule of the
    common ``linear_sum_assignment``, so the two return the same
    permutation. A non-finite cost raises ValueError."""
    cost = np.asarray(cost, dtype=float)
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix has a non-finite entry")
    cost = cost.tolist()
    k = len(cost)
    u, v = [0.0] * k, [0.0] * k
    col4row, row4col, path = [-1] * k, [-1] * k, [-1] * k
    for cur in range(k):
        dist = [math.inf] * k  # shortest path cost to each column
        remaining = list(range(k - 1, -1, -1))
        rows, cols = [cur], []  # rows and columns the search reached
        i, low = cur, 0.0
        while True:
            best, low_i = -1, math.inf
            for it, j in enumerate(remaining):
                r = low + cost[i][j] - u[i] - v[j]
                if r < dist[j]:
                    path[j], dist[j] = i, r
                if dist[j] < low_i or (dist[j] == low_i and row4col[j] == -1):
                    best, low_i = it, dist[j]
            low, j = low_i, remaining[best]
            cols.append(j)
            remaining[best] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
            rows.append(i)
        u[cur] += low
        for i in rows[1:]:
            u[i] += low - dist[col4row[i]]
        for j in cols:
            v[j] -= low - dist[j]
        while True:  # augment along the path back to row cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def relabel_conditional_on_K(trace, k):
    """Align cluster labels across all iterations with exactly k clusters.

    Labels are matched to a running reference by minimum-cost bipartite
    matching with squared-distance costs between cluster mean vectors.
    Returns (mu, membership, used) where mu is the (T, k, p) array of
    aligned means, membership is the (n, k) fraction of iterations each
    sample spent in each aligned cluster, and used lists the trace indices.
    """
    used = [t for t, kt in enumerate(trace.ks) if kt == k]
    if not used:
        raise ValueError(f"no recorded iterations with K={k}")

    p = trace.p
    mu = np.empty((len(used), k, p))
    membership = np.zeros((trace.n, k))
    ref = trace.means[used[0]].copy()
    ref_weight = 0
    for out_t, t in enumerate(used):
        m = trace.means[t]
        cost = ((m[:, None, :] - ref[None, :, :]) ** 2).sum(axis=2)
        perm = np.array(_min_cost_assignment(cost))  # original label -> aligned label
        mu[out_t, perm] = m
        membership[np.arange(trace.n), perm[trace.assignments[t]]] += 1.0
        ref = (ref * ref_weight + mu[out_t]) / (ref_weight + 1)
        ref_weight += 1
    membership /= len(used)
    return mu, membership, used


def inclusion_posterior_mean(mu, rhos, hp):
    """Posterior mean of each aligned cluster's inclusion probabilities,
    (k, p), from the (T, k, p) aligned means ``mu`` and the T recorded rho
    vectors ``rhos``. Each iteration contributes E[pi_kj | mu_kj, rho_j]
    (Rao-Blackwellised): (a + 1)/(a + b + 1) where mu_kj is nonzero, and
    (1 - w0(rho_j)) a/(a + b + 1) where it is zero, w0 being
    ``spike_zero_weight`` and (a, b) the slab (slab_a, slab_b)."""
    a, b = hp.slab_a, hp.slab_b
    w0 = spike_zero_weight(np.asarray(rhos), a, b)
    at_zero = (1.0 - w0)[:, None, :] * (a / (a + b + 1.0))
    return np.where(mu != 0.0, (a + 1.0) / (a + b + 1.0), at_zero).mean(axis=0)


def select_attributes(pi_mean, threshold=0.5):
    """Attributes whose aligned posterior-mean inclusion probability exceeds
    the threshold in at least one cluster; returned 1-based."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0,1), got {threshold}")
    hits = np.nonzero(pi_mean.max(axis=0) > threshold)[0]
    return {int(j) + 1 for j in hits}


def fitted_mean_posterior(trace, k=None):
    """Posterior mean of mu_j + mu_{c_i j} over iterations with K = k
    (modal K by default). Label-invariant, so no alignment is needed."""
    if k is None:
        _, k = k_posterior(trace)
    used = [t for t, kt in enumerate(trace.ks) if kt == k]
    if not used:
        raise ValueError(f"no recorded iterations with K={k}")
    acc = np.zeros((trace.n, trace.p))
    for t in used:
        acc += trace.fitted_mean(t)
    return acc / len(used)


def mse_fitted_means(trace, truth, restrict=None, k=None):
    """Mean squared error of the posterior-mean fitted means against the
    simulation truth, over the given 1-based attribute set, a non-empty
    subset of 1..p (all of them by default)."""
    if restrict is None:
        cols = np.arange(trace.p)
    else:
        cols = np.array(sorted(j - 1 for j in restrict), dtype=int)
        if not cols.size or cols[0] < 0 or cols[-1] >= trace.p:
            raise ValueError(f"restrict must be a non-empty set of attributes in 1..{trace.p}, "
                             f"got {sorted(restrict)}")
    est = fitted_mean_posterior(trace, k=k)
    d = est[:, cols] - truth.mu[:, cols]
    return float((d * d).mean())


def coclustering(trace):
    """n x n posterior probability that two samples share a cluster."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    n = trace.n
    out = np.zeros((n, n))
    for a in trace.assignments:
        out += a[:, None] == a[None, :]
    return out / len(trace.assignments)
