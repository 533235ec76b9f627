"""Sample-cluster moves: MH birth/death with a sequential proposal, Gibbs
reassignment, and the inner Gibbs update of cluster mean vectors.

The sequential proposal builds a candidate mean vector component by
component, conditioning each choice on the data and on the components
already drawn; its density Q enters the acceptance ratio against the prior
density Q0. Scoring a given vector replays exactly the same arithmetic in
the same order, so replayed log densities are bitwise identical to the ones
recorded at generation time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .densities import LOG_2PI, SamplerAbort
from .partition import SPIKE, Partition, crp_seat
from .sparsity import draw_pi_entry, draw_pi_row

_NEG_INF = float("-inf")


def _ln_norm(x, mean, var):
    d = x - mean
    return -0.5 * (LOG_2PI + math.log(var) + d * d / var)


def _safe_log(x):
    return math.log(x) if x > 0.0 else _NEG_INF


def _lse_list(logw):
    m = max(logw)
    if m != m or m == math.inf:
        raise SamplerAbort(f"non-finite log weights {logw}")
    if m == _NEG_INF:
        raise SamplerAbort("all log weights are -inf")
    t = 0.0
    for w in logw:
        t += math.exp(w - m)
    return m + math.log(t)


def _pick_with_lse(logw, rng):
    """Single-pass categorical draw; the returned normalizer is computed by
    the same summation order as _lse_list so replays stay bitwise equal."""
    m = max(logw)
    if m != m or m == math.inf:
        raise SamplerAbort(f"non-finite log weights {logw}")
    if m == _NEG_INF:
        raise SamplerAbort("all log weights are -inf")
    exps = []
    t = 0.0
    for w in logw:
        e = math.exp(w - m)
        exps.append(e)
        t += e
    u = rng.random() * t
    acc = 0.0
    choice = len(logw) - 1
    for idx, e in enumerate(exps):
        acc += e
        if u <= acc:
            choice = idx
            break
    return choice, m + math.log(t)


class ClusterMeanVector:
    """Mean vector of one sample cluster: an inner partition of its p
    components (SPIKE meaning exactly zero) plus one value per inner cluster."""

    __slots__ = ("inner",)

    def __init__(self, p):
        self.inner = Partition(p, allow_spike=True)

    @classmethod
    def all_spike(cls, p):
        out = cls(p)
        for j in range(p):
            out.inner.attach_spike(j)
        return out

    def mu(self):
        """Dense p-vector of mean components (zeros at spike positions)."""
        return self.inner.values_vector()

    def nonzero_count(self):
        return sum(cl[0] for cl in self.inner.clusters.values())

    def inner_cluster_count(self):
        return self.inner.n_clusters()

    def copy(self):
        out = ClusterMeanVector.__new__(ClusterMeanVector)
        out.inner = self.inner.copy()
        return out


@dataclass
class SequentialProposal:
    mean: ClusterMeanVector
    log_q: float
    log_q0: float


def _scan_fixed_terms(x_arr, v_obs_arr, attr_prob, slab_coef, slab_var, conc_inner):
    """Per-component weight terms that do not depend on the scan state:
    the spike option, and the new-cluster option up to its CRP denominator."""
    s_vec = slab_coef * np.asarray(attr_prob, dtype=float)
    with np.errstate(divide="ignore"):
        log_s_arr = np.log(s_vec)
        pre_spike = np.log1p(-s_vec) - 0.5 * (
            LOG_2PI + np.log(v_obs_arr) + x_arr * x_arr / v_obs_arr
        )
        new_var = slab_var + v_obs_arr
        pre_new = log_s_arr + math.log(conc_inner) - 0.5 * (
            LOG_2PI + np.log(new_var) + x_arr * x_arr / new_var
        )
    return pre_spike.tolist(), pre_new.tolist(), log_s_arr.tolist()


def _sequential_scan(x, n_count, sigma_sq, attr_prob, slab_coef, slab_var, conc_inner,
                     rng=None, given=None):
    """Run the sequential component-by-component recursion.

    With ``rng`` set, samples a fresh mean and returns (mean, log_q). With
    ``given`` set, deterministically replays the recursion scoring the given
    mean's inner partition and values.

    ``x[k]`` averages n_count observations, so member attribute k carries
    precision n_count / sigma_sq[k] in the inner-value posteriors (the
    per-observation 1 / sigma_sq[k] fails the joint-distribution test).
    """
    sampling = rng is not None
    p = len(x)
    x_arr = np.asarray(x, dtype=float)
    sig_arr = np.asarray(sigma_sq, dtype=float)
    v_obs_arr = sig_arr / n_count
    pre_spike, pre_new, log_s = _scan_fixed_terms(
        x_arr, v_obs_arr, attr_prob, slab_coef, slab_var, conc_inner
    )
    xs = x_arr.tolist()
    sigs = sig_arr.tolist()
    v_obs_list = v_obs_arr.tolist()
    inv_slab_var = 1.0 / slab_var

    counts = []
    sprec = []  # summed member precisions per scan cluster
    smean = []  # summed precision-weighted member statistics
    scan_cids = []  # sampling: inner cid per scan cluster
    given_cids = []  # scoring: source cid per scan cluster
    cid_to_scan = {}

    if sampling:
        mean = ClusterMeanVector(p)
    else:
        mean = given

    log_q = 0.0
    m_total = 0
    for j in range(p):
        xj = xs[j]
        v_obs = v_obs_list[j]
        log_denom = math.log(conc_inner + m_total)
        logw = [pre_spike[j]]
        lsj = log_s[j]
        for t in range(len(counts)):
            v_post = inv_slab_var + sprec[t]
            u_post = smean[t] / v_post
            logw.append(
                lsj + math.log(counts[t]) - log_denom
                + _ln_norm(xj, u_post, 1.0 / v_post + v_obs)
            )
        logw.append(pre_new[j] - log_denom)

        if sampling:
            choice, lse = _pick_with_lse(logw, rng)
        else:
            lse = _lse_list(logw)
            a = given.inner.assignments[j]
            if a == SPIKE:
                choice = 0
            elif a in cid_to_scan:
                choice = 1 + cid_to_scan[a]
            else:
                choice = 1 + len(counts)
        log_q += logw[choice] - lse

        prec_j = n_count / sigs[j]
        stat_j = prec_j * xs[j]
        if choice == 0:
            if sampling:
                mean.inner.attach_spike(j)
        elif choice <= len(counts):
            t = choice - 1
            counts[t] += 1
            sprec[t] += prec_j
            smean[t] += stat_j
            m_total += 1
            if sampling:
                mean.inner.attach(j, scan_cids[t])
        else:
            if sampling:
                scan_cids.append(mean.inner.attach_new(j, 0.0))
            else:
                cid_to_scan[a] = len(counts)
                given_cids.append(a)
            counts.append(1)
            sprec.append(prec_j)
            smean.append(stat_j)
            m_total += 1

    for t in range(len(counts)):
        v_post = 1.0 / slab_var + sprec[t]
        u_post = smean[t] / v_post
        if sampling:
            val = u_post + math.sqrt(1.0 / v_post) * rng.standard_normal()
            mean.inner.set_value(scan_cids[t], val)
        else:
            val = given.inner.value_of(given_cids[t])
        log_q += _ln_norm(val, u_post, 1.0 / v_post)

    return mean, log_q


def _slab_coef(hp):
    return hp.slab_a / (hp.slab_a + hp.slab_b)


def sequential_sample_mean(x, n_count, sigma_sq, state, hp, rng):
    """Propose a new cluster mean via sequential sampling.

    ``x`` holds the per-attribute averaged residuals of the proposed member
    set (y minus the baseline mean, averaged over the n_count members);
    ``sigma_sq`` is the dense vector of baseline variances.
    """
    mean, log_q = _sequential_scan(
        x, n_count, sigma_sq, state.attr_prob, _slab_coef(hp),
        state.slab_var, state.conc_inner, rng=rng,
    )
    return SequentialProposal(mean, log_q, eval_log_q0(mean, state, hp))


def eval_log_q(mean, x, n_count, sigma_sq, state, hp):
    """Density of ``mean`` under the sequential proposal (deterministic replay)."""
    _, log_q = _sequential_scan(
        x, n_count, sigma_sq, state.attr_prob, _slab_coef(hp),
        state.slab_var, state.conc_inner, given=mean,
    )
    return log_q


def log_q0_discrete(mean, attr_prob, slab_coef, conc_inner):
    """Prior probability of the spike pattern and inner partition alone."""
    out = 0.0
    m_total = 0
    seen = {}
    for j, a in enumerate(mean.inner.assignments):
        sj = slab_coef * float(attr_prob[j])
        if a == SPIKE:
            out += _safe_log(1.0 - sj)
            continue
        out += _safe_log(sj)
        if a in seen:
            out += math.log(seen[a]) - math.log(conc_inner + m_total)
            seen[a] += 1
        else:
            out += math.log(conc_inner) - math.log(conc_inner + m_total)
            seen[a] = 1
        m_total += 1
    return out


def eval_log_q0(mean, state, hp):
    """Prior density of (inner partition, unique values) for a mean vector.

    Uses the same dominating measure as eval_log_q (counting on partitions,
    Lebesgue on unique values), so Q0/Q ratios are well defined.
    """
    out = log_q0_discrete(mean, state.attr_prob, _slab_coef(hp), state.conc_inner)
    for cl in mean.inner.clusters.values():
        out += _ln_norm(cl[1], 0.0, state.slab_var)
    return out


def draw_prior_mean(p, slab_prob, conc_inner, slab_var, rng):
    """Draw a mean vector from its prior.

    ``slab_prob(j)`` is the probability that component j is nonzero. It is
    called once per component, in order and before that component's own
    draws, and may itself draw from ``rng``. Nonzero components share
    N(0, slab_var) values through a CRP with concentration ``conc_inner``.
    """
    mean = ClusterMeanVector(p)
    inner = mean.inner
    for j in range(p):
        s = slab_prob(j)
        if rng.random() >= s:
            inner.attach_spike(j)
            continue
        cid = crp_seat(inner, conc_inner, rng)
        if cid is None:
            inner.attach_new(j, math.sqrt(slab_var) * rng.standard_normal())
        else:
            inner.attach(j, cid)
    return mean


def sample_prior_mean(p, state, hp, rng):
    """Draw a mean vector from the prior (the unassisted proposal)."""
    slab_coef = _slab_coef(hp)
    return draw_prior_mean(
        p, lambda j: slab_coef * float(state.attr_prob[j]),
        state.conc_inner, state.slab_var, rng,
    )


def _loglik_dense(y_row, mu_vec, mu_base, sigma_sq):
    d = y_row - mu_base - mu_vec
    return float(-0.5 * (np.log(2.0 * np.pi * sigma_sq) + d * d / sigma_sq).sum())


def loglik_matrix(state, data, cids, mu_base, sigma_sq):
    """Log F(y_i; mu_c) for every sample i (rows) and every cluster in
    ``cids`` (columns): normal densities with the baseline mean included."""
    log_norm = -0.5 * np.log(2.0 * np.pi * sigma_sq).sum()
    inv_sig = 1.0 / sigma_sq
    resid = data.y - mu_base
    out = np.empty((data.n, len(cids)))
    for t, c in enumerate(cids):
        d = resid - state.cluster_means[c].mu()
        out[:, t] = log_norm - 0.5 * (d * d) @ inv_sig
    return out


def mh_birth_move(state, data, hp, i, rng, mu_base, sigma_sq):
    """Propose moving a non-singleton sample into a fresh cluster.

    ``mu_base`` and ``sigma_sq`` are the dense baseline mean and variance
    vectors, which no move of this step changes.
    """
    cid = state.samples.cluster_of(i)
    if state.samples.size_of(cid) <= 1:
        raise RuntimeError(f"sample {i} is a singleton; birth move not applicable")

    y_i = data.y[i]
    prop = sequential_sample_mean(y_i - mu_base, 1, sigma_sq, state, hp, rng)
    mean_new, log_q, log_q0 = prop.mean, prop.log_q, prop.log_q0

    log_f_new = _loglik_dense(y_i, mean_new.mu(), mu_base, sigma_sq)
    log_f_old = _loglik_dense(y_i, state.cluster_means[cid].mu(), mu_base, sigma_sq)
    log_ratio = (
        math.log(state.conc_samples) - math.log(data.n - 1)
        + log_f_new - log_f_old + log_q0 - log_q
    )
    u = rng.random()
    accepted = log_ratio >= 0.0 or u < math.exp(log_ratio)
    if accepted:
        state.samples.detach(i)
        new_cid = state.samples.attach_new(i, None)
        state.cluster_means[new_cid] = mean_new
        state.incl_prob[new_cid] = draw_pi_row(mean_new, state.attr_prob, hp, rng)
        state.cluster_data_sum[cid] = state.cluster_data_sum[cid] - y_i
        state.cluster_data_sum[new_cid] = y_i.copy()
    info = {
        "log_ratio": log_ratio, "log_f_new": log_f_new, "log_f_old": log_f_old,
        "log_q": log_q, "log_q0": log_q0,
    }
    return accepted, info


def mh_death_move(state, data, hp, i, rng, mu_base, sigma_sq):
    """Propose absorbing a singleton sample into an existing cluster."""
    cid = state.samples.cluster_of(i)
    if state.samples.size_of(cid) != 1:
        raise RuntimeError(f"sample {i} is not a singleton; death move not applicable")

    others = [(c, cl[0]) for c, cl in state.samples.clusters.items() if c != cid]
    u = rng.random() * (data.n - 1)
    acc = 0.0
    target = others[-1][0]
    for c, cnt in others:
        acc += cnt
        if u <= acc:
            target = c
            break

    y_i = data.y[i]
    mean_own = state.cluster_means[cid]
    log_q = eval_log_q(mean_own, y_i - mu_base, 1, sigma_sq, state, hp)
    log_q0 = eval_log_q0(mean_own, state, hp)

    log_f_new = _loglik_dense(y_i, state.cluster_means[target].mu(), mu_base, sigma_sq)
    log_f_old = _loglik_dense(y_i, mean_own.mu(), mu_base, sigma_sq)
    log_ratio = (
        math.log(data.n - 1) - math.log(state.conc_samples)
        + log_f_new - log_f_old + log_q - log_q0
    )
    u = rng.random()
    accepted = log_ratio >= 0.0 or u < math.exp(log_ratio)
    if accepted:
        state.samples.detach(i)
        state.samples.attach(i, target)
        state.cluster_data_sum[target] = state.cluster_data_sum[target] + y_i
        del state.cluster_means[cid]
        del state.incl_prob[cid]
        del state.cluster_data_sum[cid]
    info = {
        "log_ratio": log_ratio, "log_f_new": log_f_new, "log_f_old": log_f_old,
        "log_q": log_q, "log_q0": log_q0, "target": target,
    }
    return accepted, info


def gibbs_reassign(state, data, hp, i, rng, loglik_row, col_order):
    """Resample a non-singleton sample's cluster among existing clusters.

    ``loglik_row[t]`` is sample i's log likelihood under cluster
    ``col_order[t]``, i.e. row i of ``loglik_matrix``.
    """
    cid = state.samples.cluster_of(i)
    if state.samples.size_of(cid) <= 1:
        raise RuntimeError(f"sample {i} is a singleton; Gibbs reassignment skipped")
    state.samples.detach(i)

    logw = [
        math.log(state.samples.size_of(c)) + loglik_row[t]
        for t, c in enumerate(col_order)
    ]
    choice, _lse = _pick_with_lse(logw, rng)
    new_cid = col_order[choice]
    state.samples.attach(i, new_cid)
    if new_cid != cid:
        y_i = data.y[i]
        state.cluster_data_sum[cid] = state.cluster_data_sum[cid] - y_i
        state.cluster_data_sum[new_cid] = state.cluster_data_sum[new_cid] + y_i
    return new_cid


def gibbs_update_cluster_mean(state, data, hp, cid, rng, mu_base, sigma_sq):
    """Partially collapsed Gibbs pass over one cluster's mean components.

    Component memberships are resampled with the inner values integrated out,
    then every inner value is redrawn from its conjugate posterior. Inclusion
    probabilities are refreshed for components whose zero status flipped, so
    the mu/incl_prob coupling invariant holds at exit.
    """
    n_count = state.samples.size_of(cid)
    x = state.cluster_data_sum[cid] / n_count - mu_base
    slab_coef = _slab_coef(hp)
    slab_var = state.slab_var
    conc_inner = state.conc_inner
    sig_arr = np.asarray(sigma_sq, dtype=float)
    v_obs_arr = sig_arr / n_count
    pre_spike, pre_new, log_s = _scan_fixed_terms(
        x, v_obs_arr, state.attr_prob, slab_coef, slab_var, conc_inner
    )
    xs = x.tolist()
    sigs = sig_arr.tolist()
    v_obs_list = v_obs_arr.tolist()
    rhos = state.attr_prob.tolist()
    inv_slab_var = 1.0 / slab_var

    inner = state.cluster_means[cid].inner
    stats = {}  # inner cid -> [sum_prec, sum_stat]
    m_total = 0
    for j, a in enumerate(inner.assignments):
        if a == SPIKE:
            continue
        prec_j = n_count / sigs[j]
        st = stats.get(a)
        if st is None:
            stats[a] = [prec_j, prec_j * xs[j]]
        else:
            st[0] += prec_j
            st[1] += prec_j * xs[j]
        m_total += 1

    flipped = []
    for j in range(inner.n_items):
        prec_j = n_count / sigs[j]
        stat_j = prec_j * xs[j]
        old = inner.detach(j)
        if old != SPIKE:
            m_total -= 1
            if old in inner.clusters:
                st = stats[old]
                st[0] -= prec_j
                st[1] -= stat_j
            else:
                del stats[old]

        xj = xs[j]
        v_obs = v_obs_list[j]
        log_denom = math.log(conc_inner + m_total)
        logw = [pre_spike[j]]
        lsj = log_s[j]
        cands = list(inner.clusters.keys())
        for c in cands:
            st = stats[c]
            v_post = inv_slab_var + st[0]
            u_post = st[1] / v_post
            logw.append(
                lsj + math.log(inner.clusters[c][0]) - log_denom
                + _ln_norm(xj, u_post, 1.0 / v_post + v_obs)
            )
        logw.append(pre_new[j] - log_denom)
        choice, _lse = _pick_with_lse(logw, rng)

        if choice == 0:
            inner.attach_spike(j)
            if old != SPIKE:
                flipped.append(j)
        else:
            if choice <= len(cands):
                c = cands[choice - 1]
                inner.attach(j, c)
                st = stats[c]
                st[0] += prec_j
                st[1] += stat_j
            else:
                c = inner.attach_new(j, 0.0)
                stats[c] = [prec_j, stat_j]
            m_total += 1
            if old == SPIKE:
                flipped.append(j)

    # Conjugate redraw of every unique value, recomputed from scratch over
    # all members to avoid accumulated float drift.
    buckets = inner.members()
    for c, mem in buckets.items():
        v_post = 1.0 / slab_var
        s_stat = 0.0
        for j in mem:
            prec_j = n_count / sigs[j]
            v_post += prec_j
            s_stat += prec_j * xs[j]
        u_post = s_stat / v_post
        inner.set_value(c, u_post + math.sqrt(1.0 / v_post) * rng.standard_normal())

    row = state.incl_prob[cid]
    for j in flipped:
        row[j] = draw_pi_entry(inner.assignments[j] == SPIKE, rhos[j], hp, rng)
    return state.cluster_means[cid]


def step_clusters(state, data, hp, rng):
    """One full pass of step 5: MH birth/death per sample, Gibbs
    reassignment per non-singleton, then inner mean updates per cluster."""
    mu_base = state.mean_part.values_vector()
    sigma_sq = state.var_part.values_vector()

    for i in range(data.n):
        cid = state.samples.cluster_of(i)
        if state.samples.size_of(cid) > 1:
            mh_birth_move(state, data, hp, i, rng, mu_base, sigma_sq)
        else:
            mh_death_move(state, data, hp, i, rng, mu_base, sigma_sq)

    # The cluster set is fixed during the reassignment pass, so the
    # per-cluster log likelihood matrix can be computed once.
    col_order = list(state.samples.clusters.keys())
    loglik = loglik_matrix(state, data, col_order, mu_base, sigma_sq)
    for i in range(data.n):
        cid = state.samples.cluster_of(i)
        if state.samples.size_of(cid) > 1:
            gibbs_reassign(state, data, hp, i, rng, loglik[i], col_order)

    for cid in list(state.samples.clusters.keys()):
        gibbs_update_cluster_mean(state, data, hp, cid, rng, mu_base, sigma_sq)
