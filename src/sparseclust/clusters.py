"""Sample-cluster moves: MH birth/death with a sequential proposal, Gibbs
reassignment, and the inner Gibbs update of cluster mean vectors.

One component walk (``_scan_components``) serves every move on a cluster's
mean vector. It seats each component in turn (SPIKE, a live inner cluster
or a new one) from the collapsed spike/CRP conditional, then draws the inner
values from their conjugate posteriors, and sums both the proposal density Q
of those draws and their prior density Q0. From a fresh all-SPIKE mean it is
the sequential proposal of a birth move; over a cluster's mean it is the
inner Gibbs pass; without a generator it replays a given vector, bitwise
equal to the proposal's own Q and Q0, which is how a death move scores the
reverse birth. The walk seats components in slot lists of its own, writes
the seats into the partition's labels and the slot arrays back once, at the
end; a proposal that seats every component on SPIKE writes nothing more.

While no inner cluster is live, a component weighs only SPIKE against a new
cluster, with weights that no earlier seat changes, so the walk seats a run
of components up to the first non-spike seat as one block, from one vector
draw of uniforms; the generator is then repositioned after exactly the
uniforms the run used. The replay walks the same blocks. A block starts
only at a component that favours SPIKE, so dense vectors take the scalar
path.

The walk reads its per-component inputs from a ``WalkTerms`` row: the
SPIKE and new-cluster weights, where spike runs start and the run's choice
terms, built as arrays before the walk, and as Python lists only when the
walk leaves the block path. None of them depends on a seat. In step 5 they
depend only on the baselines, attr_prob, slab_var and conc_inner, and no
birth, death or reassignment move changes any of those. So
``step_clusters`` builds one ``BirthDeathPass`` for the birth/death loop and
the reassignment pass: the terms of every sample's residual y_i - mu_base as
(n, p) rows, together with log(2 pi sigma^2) and every sample's log
likelihood under a zero mean, which is the likelihood of nearly every
proposal at the default sparsity and the reassignment column of every
all-spike cluster. The elementwise ufuncs and the row sums give the same
bits on the (n, p) arrays as on one row, so the random stream does not
depend on which form is built. The inner Gibbs pass then reads each
cluster's member rows from the data, in ascending sample order.
"""

import math

import numpy as np

from .densities import LOG_2PI, SamplerAbort, log_normal_pdf
from .partition import SPIKE, Partition, crp_seat
from .sparsity import draw_pi_entry, draw_pi_row

_NEG_INF = float("-inf")


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
    components (SPIKE meaning exactly zero) plus one value per inner cluster.
    It is all SPIKE unless ``inner`` gives the partition."""

    __slots__ = ("inner",)

    def __init__(self, p, inner=None):
        if inner is None:
            labels = np.empty(p, dtype=np.intp)
            labels.fill(SPIKE)  # half the time of np.full, once per birth proposal
            inner = Partition(labels, allow_spike=True)
        self.inner = inner

    def mu(self):
        """Dense p-vector of mean components (zeros at spike positions)."""
        return self.inner.values_vector()

    def nonzero_count(self):
        return sum(self.inner.sizes())

    def inner_cluster_count(self):
        return self.inner.n_clusters()


class WalkTerms:
    """The terms of the component walk that no seat changes, for each row of
    ``x``, a (p,) or an (n, p) array of averaged residuals, each the mean of
    ``n_count`` observations with variances ``sigma_sq``.

    Per component j and row: the SPIKE weight ``spike`` and the new-cluster
    weight ``new`` (the seat weights with the inner values integrated out;
    ``new`` before the CRP denominator), whether j starts a spike run
    (``starts_run``: j favours SPIKE while no inner cluster is live), and
    the run's scaled choice terms ``run_spike``, ``run_tot``,
    ``run_lp_spike`` and ``run_lp_new`` (see ``_spike_run_terms``), with
    one finiteness flag per row in ``run_finite``. Shared by all rows:
    log s, log(1 - s), the observation variance and precision.
    """

    def __init__(self, x, n_count, sigma_sq, state, hp):
        self.x = np.atleast_2d(np.asarray(x, dtype=float))
        sig = np.asarray(sigma_sq, dtype=float)
        self.v_obs = sig / n_count
        self.prec = n_count / sig
        s_vec = _slab_coef(hp) * np.asarray(state.attr_prob, dtype=float)
        self.slab_var = state.slab_var
        self.conc_inner = state.conc_inner
        self.log_conc = math.log(state.conc_inner)
        x = self.x
        with np.errstate(divide="ignore"):
            self.log_s = np.log(s_vec)
            self.log_spike = np.log1p(-s_vec)
            new_var = self.slab_var + self.v_obs
            self.spike = self.log_spike - 0.5 * (LOG_2PI + np.log(self.v_obs) + x * x / self.v_obs)
            self.new = self.log_s + self.log_conc - 0.5 * (
                LOG_2PI + np.log(new_var) + x * x / new_var)
        # With no inner cluster live, m_total is 0 and the CRP denominator
        # is conc_inner.
        w_new = self.new - self.log_conc
        self.starts_run = self.spike >= w_new
        (self.run_spike, self.run_tot, self.run_lp_spike, self.run_lp_new,
         self.run_finite) = _spike_run_terms(self.spike, w_new)
        self._shared = None

    def row_lists(self, i):
        """Row i as Python lists for the walk's scalar path: x, precision
        times x, the SPIKE and new-cluster weights, then the shared log s,
        log(1 - s), observation variances and precisions."""
        if self._shared is None:
            self._shared = (self.log_s.tolist(), self.log_spike.tolist(),
                            self.v_obs.tolist(), self.prec.tolist())
        x = self.x[i]
        return (x.tolist(), (self.prec * x).tolist(), self.spike[i].tolist(),
                self.new[i].tolist(), *self._shared)

    def propose(self, i, rng):
        """(mean, log Q, log Q0): a new cluster mean for row i, drawn by the
        sequential proposal, with its proposal and prior log densities."""
        mean = ClusterMeanVector(self.x.shape[1])
        return (mean, *_scan_components(mean.inner, self, i, rng))


class BirthDeathPass(WalkTerms):
    """What the birth, death and reassignment moves of one step-5 pass read:
    the walk terms of every sample's residual ``x[i] = y_i - mu_base``
    (n_count 1), ``log(2 pi sigma_sq)`` and every sample's log likelihood
    under a zero mean. See the module docstring for why none of it changes
    in the pass."""

    def __init__(self, y, mu_base, sigma_sq, state, hp):
        sigma_sq = np.asarray(sigma_sq, dtype=float)
        super().__init__(y - mu_base, 1, sigma_sq, state, hp)
        self.sigma_sq = sigma_sq
        self.log_2pi_var = np.log(2.0 * np.pi * sigma_sq)
        self.zero_loglik = _loglik_rows(self.x, self.log_2pi_var, sigma_sq).tolist()

    def loglik(self, i, mean):
        """Log F(y_i; mu_base + mean): sample i's normal log likelihood."""
        if not mean.inner.n_clusters():  # every component is SPIKE
            return self.zero_loglik[i]
        return float(_loglik_rows(self.x[i] - mean.mu(), self.log_2pi_var, self.sigma_sq))

    def loglik_column(self, mean):
        """Every sample's log F(y_i; mu_base + mean), as ``loglik`` gives it."""
        if not mean.inner.n_clusters():  # every component is SPIKE
            return self.zero_loglik
        return _loglik_rows(self.x - mean.mu(), self.log_2pi_var, self.sigma_sq)

    def birth_log_ratio(self, state, i, mean_new, log_q, log_q0):
        """(log MH ratio, log F new, log F old) of moving sample i out of its
        cluster into a new one with mean ``mean_new``, proposed with
        density ``log_q`` whose prior density is ``log_q0``."""
        log_f_new = self.loglik(i, mean_new)
        log_f_old = self.loglik(i, state.cluster_means[state.samples.cluster_of(i)])
        log_ratio = (
            math.log(state.conc_samples) - math.log(len(self.x) - 1)
            + log_f_new - log_f_old + log_q0 - log_q
        )
        return log_ratio, log_f_new, log_f_old


def _scan_components(inner, terms, i, rng=None):
    """Walk a mean vector's components in order; returns (log_q, log_q0).

    Each component j leaves its seat (if it has one), then SPIKE, every live
    inner cluster and a new cluster are weighed with the inner values
    integrated out, and j is seated. After the walk every inner value is
    drawn from its conjugate posterior. ``log_q`` sums the log probabilities
    of these seat and value draws, ``log_q0`` the prior (spike/CRP and
    N(0, slab_var)) log densities of the same seats and values, both on
    counting measure for partitions and Lebesgue measure for unique values.
    The walk's inputs are row ``i`` of ``terms`` (a ``WalkTerms``).

    With ``rng`` the seats and values are drawn and written into ``inner``:
    the seats into its labels as they are drawn, the slot arrays in one
    ``set_slots`` call at the end. From an all-SPIKE partition this is the
    sequential proposal, over a cluster's current mean the inner Gibbs pass
    (whose caller ignores the two sums: there the later components are still
    seated, so they are not densities of the result).
    Without ``rng`` the walk starts empty and replays the seats and values
    ``inner`` holds, leaving it untouched; the replay repeats the proposal's
    arithmetic, spike-run blocks included, so its log densities are bitwise
    equal.

    ``x[j]`` averages n_count observations, so member j carries precision
    n_count / sigma_sq[j] in the inner-value posteriors (the per-observation
    1 / sigma_sq[j] fails the joint-distribution test).
    """
    replay = rng is None
    labels = inner.labels
    p = len(labels)
    slab_var = terms.slab_var
    conc_inner = terms.conc_inner
    log_conc = terms.log_conc
    inv_slab_var = 1.0 / slab_var
    starts_run = terms.starts_run[i]
    k_start = 0 if replay else inner.n_clusters()
    # The seats the walk starts from (drawing) or replays; and the row as
    # Python lists. A walk from empty needs neither on the block path, so
    # it builds them when it leaves that path.
    start = labels.tolist() if k_start else None
    xs = None
    if k_start:
        xs, stats, pre_spike, pre_new, log_s, log_spike, v_obs_list, precs = terms.row_lists(i)
    seats = None if replay else labels  # drawing: the drawn seats, as tags
    if k_start:
        seats.fill(SPIKE)  # the seat of every component not drawn off SPIKE

    # Parallel slot lists, one slot per live inner cluster in creation order:
    # its tag, member count, summed member precision and summed statistic.
    # A cluster's tag is its slot in ``inner`` (drawing, for the clusters
    # live at the start; replaying, for every cluster) or, for a cluster the
    # drawing walk opens, the next number after those.
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
        if k_start:
            a = start[j]
            if a >= 0:
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
        block = not k and starts_run.item(j)
        if block:
            # A spike run: see the module docstring.
            if not terms.run_finite[i]:
                raise SamplerAbort("non-finite log weights in a spike run")
            stop = _spike_run_stop(j, terms, i, labels, rng)
            log_q += float(np.add.reduce(terms.run_lp_spike[i, j:stop]))
            log_q0 += float(np.add.reduce(terms.log_spike[j:stop]))
            if stop == p:
                break
            j = stop
            choice = 1
            log_q += terms.run_lp_new.item(i, j)
        if xs is None:
            xs, stats, pre_spike, pre_new, log_s, log_spike, v_obs_list, precs = \
                terms.row_lists(i)
            if replay:
                start = labels.tolist()
        if not block:
            xj = xs[j]
            v_obs = v_obs_list[j]
            lsj = log_s[j]
            logw = [pre_spike[j]]
            for t in range(k):
                v_post = inv_slab_var + sprec[t]
                logw.append(
                    lsj + math.log(counts[t]) - log_denom
                    + log_normal_pdf(xj, sstat[t] / v_post, 1.0 / v_post + v_obs)
                )
            logw.append(pre_new[j] - log_denom)
            choice, lse = _pick_with_lse(logw, rng)
            if replay:
                a = start[j]
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
            if replay:
                a = start[j]
            else:
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
            log_q += log_normal_pdf(val, u_post, var)
            log_q0 += log_normal_pdf(val, 0.0, slab_var)
    if not replay and (tags or k_start):  # else every seat stayed SPIKE
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
    component's two-way choice, scaled as ``_pick_with_lse`` scales them,
    and per row whether all of them are finite (a walk that takes the block
    path on a row that is not aborts)."""
    m = np.maximum(w_spike, w_new)
    finite = np.isfinite(m).all(axis=-1).tolist()
    with np.errstate(invalid="ignore"):
        e_spike = np.exp(w_spike - m)
        tot = e_spike + np.exp(w_new - m)
        m += np.log(tot)  # the log normalizer, in place to spare an (n, p) array
        return e_spike, tot, w_spike - m, w_new - m, finite


def _spike_run_stop(j, terms, i, labels, rng):
    """The first component at or after j seated off SPIKE (len(labels) if
    none); replaying, the seats are ``labels``. Drawing, it seats component
    c on SPIKE when ``u_c * total_c <= spike_c`` (row i of ``terms``), the
    scalar draw's rule, then restores the generator and draws again just
    the uniforms the run used: that leaves any bit generator where one
    uniform per component would."""
    p = len(labels)
    if rng is None:
        off = labels[j:] != SPIKE
    else:
        saved = rng.bit_generator.state
        off = rng.random(p - j) * terms.run_tot[i, j:] > terms.run_spike[i, j:]
    stop = j + int(off.argmax()) if off.any() else p
    if rng is not None:
        rng.bit_generator.state = saved
        rng.random(min(stop + 1, p) - j)
    return stop


def _slab_coef(hp):
    return hp.slab_a / (hp.slab_a + hp.slab_b)


def draw_prior_mean(p, slab_prob, conc_inner, slab_var, rng):
    """Draw a mean vector from its prior.

    ``slab_prob(j)`` is the probability that component j is nonzero. It is
    called once per component, in order and before that component's own
    draws, and may itself draw from ``rng``. Nonzero components share
    N(0, slab_var) values through a CRP with concentration ``conc_inner``.
    """
    labels, counts, values = [], [], []
    for j in range(p):
        s = slab_prob(j)
        if rng.random() >= s:
            labels.append(SPIKE)
            continue
        t = crp_seat(counts, conc_inner, rng)
        if t == len(counts):
            counts.append(1)
            values.append(math.sqrt(slab_var) * rng.standard_normal())
        else:
            counts[t] += 1
        labels.append(t)
    return ClusterMeanVector(p, Partition(labels, counts, values, allow_spike=True))


def sample_prior_mean(p, state, hp, rng):
    """Draw a mean vector from the prior (the unassisted proposal)."""
    slab_coef = _slab_coef(hp)
    return draw_prior_mean(
        p, lambda j: slab_coef * float(state.attr_prob[j]),
        state.conc_inner, state.slab_var, rng,
    )


def _loglik_rows(d, log_2pi_var, sigma_sq):
    """Per row of residuals ``d`` (mean removed), the normal log density."""
    return (-0.5 * (log_2pi_var + d * d / sigma_sq)).sum(axis=-1)


def mh_birth_move(state, data, hp, i, rng, bd):
    """Propose moving a non-singleton sample into a fresh cluster.

    ``bd`` is the step's ``BirthDeathPass``.
    """
    if state.samples.cluster_size(i) <= 1:
        raise RuntimeError(f"sample {i} is a singleton; birth move not applicable")

    mean_new, log_q, log_q0 = bd.propose(i, rng)
    log_ratio, log_f_new, log_f_old = bd.birth_log_ratio(state, i, mean_new, log_q, log_q0)
    u = rng.random()
    accepted = log_ratio >= 0.0 or u < math.exp(log_ratio)
    if accepted:
        new_cid = state.samples.move(i)
        state.cluster_means[new_cid] = mean_new
        state.incl_prob[new_cid] = draw_pi_row(mean_new, state.attr_prob, hp, rng)
    info = {
        "log_ratio": log_ratio, "log_f_new": log_f_new, "log_f_old": log_f_old,
        "log_q": log_q, "log_q0": log_q0,
    }
    return accepted, info


def mh_death_move(state, data, hp, i, rng, bd):
    """Propose absorbing a singleton sample into an existing cluster.

    ``bd`` is the step's ``BirthDeathPass``.
    """
    samples = state.samples
    cid = samples.cluster_of(i)
    if samples.cluster_size(i) != 1:
        raise RuntimeError(f"sample {i} is not a singleton; death move not applicable")

    # The target is a sample drawn uniformly from the other n - 1 samples:
    # a CRP seat among the other clusters with no new table.
    s = samples.labels.item(i)
    others = samples.sizes()
    del others[s]
    t = crp_seat(others, 0.0, rng)
    target = samples.ids.item(t + (t >= s))

    mean_own = state.cluster_means[cid]
    log_q, log_q0 = _scan_components(mean_own.inner, bd, i)

    log_f_new = bd.loglik(i, state.cluster_means[target])
    log_f_old = bd.loglik(i, mean_own)
    log_ratio = (
        math.log(data.n - 1) - math.log(state.conc_samples)
        + log_f_new - log_f_old + log_q - log_q0
    )
    u = rng.random()
    accepted = log_ratio >= 0.0 or u < math.exp(log_ratio)
    if accepted:
        samples.move(i, target)
        del state.cluster_means[cid]
        del state.incl_prob[cid]
    info = {
        "log_ratio": log_ratio, "log_f_new": log_f_new, "log_f_old": log_f_old,
        "log_q": log_q, "log_q0": log_q0, "target": target,
    }
    return accepted, info


def gibbs_reassign(state, data, hp, i, rng, loglik_row, col_order):
    """Resample a non-singleton sample's cluster among existing clusters.

    ``loglik_row[t]`` is sample i's log likelihood under cluster
    ``col_order[t]``: entry i of that cluster's ``BirthDeathPass.loglik_column``.
    """
    samples = state.samples
    if samples.cluster_size(i) <= 1:
        raise RuntimeError(f"sample {i} is a singleton; Gibbs reassignment skipped")

    # Sample i's cluster keeps other members, so the cluster set is the one
    # ``col_order`` lists, and slots are in the same creation order. Each
    # weight counts the cluster's members other than sample i.
    counts = samples.sizes()
    counts[samples.labels.item(i)] -= 1
    logw = [math.log(c) + w for c, w in zip(counts, loglik_row.tolist())]
    choice, _lse = _pick_with_lse(logw, rng)
    return samples.move(i, col_order[choice])


def gibbs_update_cluster_mean(state, data, hp, cid, rng, mu_base, sigma_sq, mem):
    """Partially collapsed Gibbs pass over one cluster's mean components.

    ``mem`` lists the cluster's samples in ascending order, as
    ``Partition.members`` gives them; the pass reads their average residual.
    Component memberships are resampled with the inner values integrated out,
    then every inner value is redrawn from its conjugate posterior. Inclusion
    probabilities are refreshed for components whose zero status flipped, so
    the mu/incl_prob coupling invariant holds at exit.
    """
    n_count = len(mem)
    x = data.y[mem].sum(axis=0) / n_count - mu_base
    inner = state.cluster_means[cid].inner
    was_spike = inner.spike_mask()
    _scan_components(inner, WalkTerms(x, n_count, sigma_sq, state, hp), 0, rng)

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

    bd = BirthDeathPass(data.y, mu_base, sigma_sq, state, hp)
    for i in range(data.n):
        if state.samples.cluster_size(i) > 1:
            mh_birth_move(state, data, hp, i, rng, bd)
        else:
            mh_death_move(state, data, hp, i, rng, bd)

    # The cluster set and the means are fixed during the reassignment pass,
    # so each cluster's column of log likelihoods is computed once.
    col_order = state.samples.cluster_ids()
    loglik = np.column_stack([bd.loglik_column(state.cluster_means[c]) for c in col_order])
    del bd  # (n, p) arrays the rest of the step does not read
    for i in range(data.n):
        if state.samples.cluster_size(i) > 1:
            gibbs_reassign(state, data, hp, i, rng, loglik[i], col_order)

    # The inner pass moves no sample.
    for cid, mem in state.samples.members().items():
        gibbs_update_cluster_mean(state, data, hp, cid, rng, mu_base, sigma_sq, mem)
