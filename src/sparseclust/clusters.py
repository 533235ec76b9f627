"""Sample-cluster moves: MH birth/death with a sequential proposal, Gibbs
reassignment, and the inner Gibbs update of cluster mean vectors.

One component walk (``_scan_components``) serves every move on a cluster's
mean vector. It seats each component in turn (SPIKE, a live inner cluster
or a new one) from the collapsed spike/CRP conditional, then draws the inner
values from their conjugate posteriors, and sums both the proposal density Q
of those draws and their prior density Q0. From an empty partition it is the
sequential proposal of a birth move; from a live one it is the inner Gibbs
pass; without a generator it replays a given vector, bitwise equal to the
proposal's own Q and Q0, which is how a death move scores the reverse birth.
The walk seats components in slot lists of its own and writes the partition
back once, at the end.

While no inner cluster is live, a component weighs only SPIKE against a new
cluster, with weights that no earlier seat changes, so the walk seats a run
of components up to the first non-spike seat as one block, from one vector
draw of uniforms; the generator is then repositioned after exactly the
uniforms the run used. The replay walks the same blocks. A block starts
only at a component that favours SPIKE, so dense vectors take the scalar
path.
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


def _pick_with_lse(logw, rng):
    """Single-pass categorical draw, returned with the log normalizer; with
    ``rng`` None only the normalizer, by the same summation, so replays stay
    bitwise equal."""
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
    if rng is None:
        return None, m + math.log(t)
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
        out.inner.set_slots([], np.full(p, SPIKE), [], [])
        return out

    def mu(self):
        """Dense p-vector of mean components (zeros at spike positions)."""
        return self.inner.values_vector()

    def nonzero_count(self):
        return sum(self.inner.sizes())

    def inner_cluster_count(self):
        return self.inner.n_clusters()


@dataclass
class SequentialProposal:
    mean: ClusterMeanVector
    log_q: float
    log_q0: float


def _scan_components(inner, x, n_count, sigma_sq, state, hp, rng=None):
    """Walk a mean vector's components in order; returns (log_q, log_q0).

    Each component j leaves its seat (if it has one), then SPIKE, every live
    inner cluster and a new cluster are weighed with the inner values
    integrated out, and j is seated. After the walk every inner value is
    drawn from its conjugate posterior. ``log_q`` sums the log probabilities
    of these seat and value draws, ``log_q0`` the prior (spike/CRP and
    N(0, slab_var)) log densities of the same seats and values, both on
    counting measure for partitions and Lebesgue measure for unique values.

    With ``rng`` the seats and values are drawn, then written into ``inner``
    in one ``set_slots`` call: from an all-detached partition this is the
    sequential proposal, from a live one the inner Gibbs pass (whose caller
    ignores the two sums: there the later components are still seated, so
    they are not densities of the result).
    Without ``rng`` the walk starts empty and replays the seats and values
    ``inner`` holds, leaving it untouched; the replay repeats the proposal's
    arithmetic, spike-run blocks included, so its log densities are bitwise
    equal.

    ``x[j]`` averages n_count observations, so member j carries precision
    n_count / sigma_sq[j] in the inner-value posteriors (the per-observation
    1 / sigma_sq[j] fails the joint-distribution test).
    """
    replay = rng is None
    x_arr = np.asarray(x, dtype=float)
    sig_arr = np.asarray(sigma_sq, dtype=float)
    v_obs_arr = sig_arr / n_count
    prec_arr = n_count / sig_arr
    s_vec = _slab_coef(hp) * np.asarray(state.attr_prob, dtype=float)
    slab_var = state.slab_var
    conc_inner = state.conc_inner
    log_conc = math.log(conc_inner)
    with np.errstate(divide="ignore"):
        log_s_arr = np.log(s_vec)
        log_spike_arr = np.log1p(-s_vec)
        new_var = slab_var + v_obs_arr
        spike_arr = log_spike_arr - 0.5 * (
            LOG_2PI + np.log(v_obs_arr) + x_arr * x_arr / v_obs_arr)
        new_arr = log_s_arr + log_conc - 0.5 * (
            LOG_2PI + np.log(new_var) + x_arr * x_arr / new_var)
    pre_spike = spike_arr.tolist()
    pre_new = new_arr.tolist()
    log_s = log_s_arr.tolist()
    log_spike = log_spike_arr.tolist()
    xs = x_arr.tolist()
    v_obs_list = v_obs_arr.tolist()
    precs = prec_arr.tolist()
    stats = (prec_arr * x_arr).tolist()
    inv_slab_var = 1.0 / slab_var
    p = len(xs)
    start = inner.labels.tolist()  # the seats the walk starts from or replays
    seats = None if replay else inner.labels  # drawing: the drawn seats, as tags
    if not replay:
        seats.fill(SPIKE)  # the seat of every component not drawn off SPIKE
    run = None  # per-component terms of a spike run, built on first use

    # Parallel slot lists, one slot per live inner cluster in creation order:
    # its tag, member count, summed member precision and summed statistic.
    # A cluster's tag is its slot in ``inner`` (drawing, for the clusters
    # live at the start; replaying, for every cluster) or, for a cluster the
    # drawing walk opens, the next number after those.
    k_start = 0 if replay else inner.n_clusters()
    tags = list(range(k_start))
    slot_of = {t: t for t in tags}
    counts = inner.sizes() if k_start else []
    sprec = [0.0] * k_start
    sstat = [0.0] * k_start
    if k_start:
        # Sequential sums in component order keep the stream.
        for j, a in enumerate(start):
            if a >= 0:
                sprec[a] += precs[j]
                sstat[a] += stats[j]
    m_total = sum(counts)
    next_tag = k_start

    log_q = 0.0
    log_q0 = 0.0
    j = 0
    while j < p:
        a = start[j]
        if not replay and a >= 0:
            t = slot_of[a]
            m_total -= 1
            if counts[t] == 1:
                for lst in (tags, counts, sprec, sstat):
                    del lst[t]
                slot_of = {c: s for s, c in enumerate(tags)}
            else:
                counts[t] -= 1
                sprec[t] -= precs[j]
                sstat[t] -= stats[j]

        log_denom = math.log(conc_inner + m_total)
        k = len(counts)
        if not k and pre_spike[j] >= pre_new[j] - log_denom:
            # A spike run: see the module docstring.
            if run is None:
                run = _spike_run_terms(spike_arr, new_arr - log_denom)
            stop = _spike_run_stop(j, run, inner.labels, rng)
            log_q += float(np.add.reduce(run[2][j:stop]))
            log_q0 += float(np.add.reduce(log_spike_arr[j:stop]))
            if stop == p:
                break
            j = stop
            a = start[j]
            choice = 1
            log_q += run[3][j]
        else:
            xj = xs[j]
            v_obs = v_obs_list[j]
            lsj = log_s[j]
            logw = [pre_spike[j]]
            for t in range(k):
                v_post = inv_slab_var + sprec[t]
                logw.append(
                    lsj + math.log(counts[t]) - log_denom
                    + _ln_norm(xj, sstat[t] / v_post, 1.0 / v_post + v_obs)
                )
            logw.append(pre_new[j] - log_denom)
            choice, lse = _pick_with_lse(logw, rng)
            if replay:
                choice = 0 if a == SPIKE else 1 + slot_of.get(a, k)
            log_q += logw[choice] - lse

        if choice == 0:
            log_q0 += log_spike[j]
            j += 1
            continue
        lsj = log_s[j]
        m_total += 1
        if choice <= k:
            t = choice - 1
            log_q0 += lsj + math.log(counts[t]) - log_denom
            counts[t] += 1
            sprec[t] += precs[j]
            sstat[t] += stats[j]
            if not replay:
                seats[j] = tags[t]
        else:
            log_q0 += lsj + log_conc - log_denom
            if not replay:
                a = seats[j] = next_tag
                next_tag += 1
            slot_of[a] = k
            tags.append(a)
            counts.append(1)
            sprec.append(precs[j])
            sstat.append(stats[j])
        j += 1

    values = []
    if tags:
        # Posterior of each inner value, recomputed from scratch over its
        # members in component order to avoid accumulated float drift.
        post_prec = [inv_slab_var] * len(tags)
        post_stat = [0.0] * len(tags)
        for j, a in enumerate(start if replay else seats.tolist()):
            if a >= 0:
                t = slot_of[a]
                post_prec[t] += precs[j]
                post_stat[t] += stats[j]
        for t, c in enumerate(tags):
            var = 1.0 / post_prec[t]
            u_post = post_stat[t] / post_prec[t]
            if replay:
                val = float(inner.values[c])
            else:
                val = u_post + math.sqrt(var) * rng.standard_normal()
            values.append(val)
            log_q += _ln_norm(val, u_post, var)
            log_q0 += _ln_norm(val, 0.0, slab_var)
    if not replay:
        if tags and tags[-1] != len(tags) - 1:
            # A cluster emptied during the walk (tags increase, so only then
            # do they skip a number): tags to slots.
            slot = np.zeros(tags[-1] + 1, dtype=np.intp)
            slot[tags] = np.arange(len(tags))
            seats = np.where(seats >= 0, slot[seats], SPIKE)
        ids = inner.cluster_ids()
        inner.set_slots([ids[c] if c < k_start else None for c in tags], seats, counts, values)
    return log_q, log_q0


def _spike_run_terms(w_spike, w_new):
    """(SPIKE weight, total weight, log P(SPIKE), log P(new)) of every
    component's two-way choice, scaled as ``_pick_with_lse`` scales them."""
    m = np.maximum(w_spike, w_new)
    if not np.isfinite(m).all():
        raise SamplerAbort("non-finite log weights in a spike run")
    e_spike = np.exp(w_spike - m)
    tot = e_spike + np.exp(w_new - m)
    lse = m + np.log(tot)
    return e_spike, tot, w_spike - lse, w_new - lse


def _spike_run_stop(j, run, labels, rng):
    """The first component at or after j seated off SPIKE (len(labels) if
    none); replaying, the seats are ``labels``. Drawing, it seats component
    i on SPIKE when ``u_i * total_i <= spike_i``, the scalar draw's rule,
    then restores the generator and draws again just the uniforms the run
    used: that leaves any bit generator where one uniform per component
    would."""
    p = len(labels)
    if rng is None:
        off = labels[j:] != SPIKE
    else:
        saved = rng.bit_generator.state
        off = rng.random(p - j) * run[1][j:] > run[0][j:]
    stop = j + int(off.argmax()) if off.any() else p
    if rng is not None:
        rng.bit_generator.state = saved
        rng.random(min(stop + 1, p) - j)
    return stop


def _slab_coef(hp):
    return hp.slab_a / (hp.slab_a + hp.slab_b)


def sequential_sample_mean(x, n_count, sigma_sq, state, hp, rng):
    """Propose a new cluster mean via sequential sampling.

    ``x`` holds the per-attribute averaged residuals of the proposed member
    set (y minus the baseline mean, averaged over the n_count members);
    ``sigma_sq`` is the dense vector of baseline variances.
    """
    mean = ClusterMeanVector(len(x))
    log_q, log_q0 = _scan_components(mean.inner, x, n_count, sigma_sq, state, hp, rng)
    return SequentialProposal(mean, log_q, log_q0)


def eval_log_q(mean, x, n_count, sigma_sq, state, hp):
    """(log Q, log Q0) of ``mean``: its density under the sequential
    proposal (a deterministic replay) and under the prior."""
    return _scan_components(mean.inner, x, n_count, sigma_sq, state, hp)


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
    if state.samples.cluster_size(i) <= 1:
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
        new_cid = state.samples.attach_new(i)
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
    if state.samples.cluster_size(i) != 1:
        raise RuntimeError(f"sample {i} is not a singleton; death move not applicable")

    others = [
        (c, cnt) for c, cnt in zip(state.samples.cluster_ids(), state.samples.sizes())
        if c != cid
    ]
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
    log_q, log_q0 = eval_log_q(mean_own, y_i - mu_base, 1, sigma_sq, state, hp)

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
    if state.samples.cluster_size(i) <= 1:
        raise RuntimeError(f"sample {i} is a singleton; Gibbs reassignment skipped")
    state.samples.detach(i)

    size = dict(zip(state.samples.cluster_ids(), state.samples.sizes()))
    logw = [math.log(size[c]) + loglik_row[t] for t, c in enumerate(col_order)]
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
    inner = state.cluster_means[cid].inner
    was_spike = inner.spike_mask()
    _scan_components(inner, x, n_count, sigma_sq, state, hp, rng)

    row = state.incl_prob[cid]
    is_spike = inner.spike_mask()
    for j in np.flatnonzero(is_spike != was_spike).tolist():
        row[j] = draw_pi_entry(bool(is_spike[j]), float(state.attr_prob[j]), hp, rng)
    return state.cluster_means[cid]


def step_clusters(state, data, hp, rng):
    """One full pass of step 5: MH birth/death per sample, Gibbs
    reassignment per non-singleton, then inner mean updates per cluster."""
    mu_base = state.mean_part.values_vector()
    sigma_sq = state.var_part.values_vector()

    for i in range(data.n):
        if state.samples.cluster_size(i) > 1:
            mh_birth_move(state, data, hp, i, rng, mu_base, sigma_sq)
        else:
            mh_death_move(state, data, hp, i, rng, mu_base, sigma_sq)

    # The cluster set is fixed during the reassignment pass, so the
    # per-cluster log likelihood matrix can be computed once.
    col_order = state.samples.cluster_ids()
    loglik = loglik_matrix(state, data, col_order, mu_base, sigma_sq)
    for i in range(data.n):
        if state.samples.cluster_size(i) > 1:
            gibbs_reassign(state, data, hp, i, rng, loglik[i], col_order)

    for cid in state.samples.cluster_ids():
        gibbs_update_cluster_mean(state, data, hp, cid, rng, mu_base, sigma_sq)
