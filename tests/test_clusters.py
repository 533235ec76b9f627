import copy
import math

import mpmath
import numpy as np
import pytest

from sparseclust.clusters import (
    BirthDeathPass,
    ClusterMeanVector,
    WalkTerms,
    _scan_components,
    _slab_coef,
    gibbs_reassign,
    gibbs_update_cluster_mean,
    mh_birth_move,
    mh_death_move,
    sample_prior_mean,
)
from sparseclust.densities import log_normal_pdf
from sparseclust.model import Hyperparams
from sparseclust.partition import SPIKE

from conftest import build_partition, make_state, manual_state

mpmath.mp.dps = 40


def _baselines(state):
    return state.mean_part.values_vector(), state.var_part.values_vector()


def _pass(state, data, hp):
    """The birth/death pass object ``step_clusters`` builds for this state."""
    return BirthDeathPass(data.y, *_baselines(state), state, hp)


# -- likelihood ---------------------------------------------------------------


def _both_log_f(state, data, hp, i, cid):
    """Sample i's log likelihood under cluster cid, as the birth/death moves
    read it and from the column the reassignment pass reads."""
    bd = _pass(state, data, hp)
    mean = state.cluster_means[cid]
    return bd.loglik(i, mean), bd.loglik_column(mean)[i]


def test_likelihood_at_mode_single_attribute():
    state, data, hp = manual_state(np.array([[0.7], [0.7]]), sigma_sq=[0.25],
                                   mean_values=[0.2])
    cid = state.samples.cluster_ids()[0]
    # y = mu_j + mu_cj exactly
    state.cluster_means[cid] = ClusterMeanVector(1, build_partition([[0]], [0.5], 1))
    want = -0.5 * math.log(2 * math.pi * 0.25)
    for got in _both_log_f(state, data, hp, 0, cid):
        assert got == pytest.approx(want, abs=1e-12)


def test_likelihood_spike_case_reduces_to_baseline():
    state, data, hp = make_state(n=3, p=4, seed=2)
    cid = state.samples.cluster_ids()[0]
    state.cluster_means[cid] = ClusterMeanVector(4)
    mu_base, sig = _baselines(state)
    want = sum(
        log_normal_pdf(data.y[0][j], mu_base[j], sig[j]) for j in range(4)
    )
    for got in _both_log_f(state, data, hp, 0, cid):
        assert got == pytest.approx(want, rel=1e-12)


def test_likelihood_recomposition_oracle():
    """Both kinds of column the pass serves: an all-spike mean, which reads
    the zero-mean likelihood, and a mean with slab components."""
    state, data, hp = make_state(n=3, p=5, seed=3)
    cid = state.samples.cluster_ids()[0]
    mu_base, sig = _baselines(state)
    slab = ClusterMeanVector(5, build_partition([[0, 3], [2]], [0.7, -1.2], 5))
    for mean in (ClusterMeanVector(5), slab):
        state.cluster_means[cid] = mean
        mu_vec = mean.mu()
        want = sum(
            log_normal_pdf(data.y[1][j], mu_base[j] + mu_vec[j], sig[j]) for j in range(5)
        )
        for got in _both_log_f(state, data, hp, 1, cid):
            assert got == pytest.approx(want, rel=1e-12)


# -- sequential proposal ------------------------------------------------------


def test_sequential_p1_hand_enumeration():
    y = np.array([[0.6], [0.1]])
    state, data, hp = manual_state(y, sigma_sq=[0.2], attr_prob=0.4, slab_var=1.5)
    x = np.array([0.6])
    s = _slab_coef(hp) * 0.4
    w_spike = (1 - s) * math.exp(log_normal_pdf(0.6, 0.0, 0.2))
    w_slab = s * math.exp(log_normal_pdf(0.6, 0.0, 1.5 + 0.2))  # gamma/(gamma+0) = 1
    p_slab = w_slab / (w_spike + w_slab)

    hits = 0
    trials = 40_000
    rng = np.random.default_rng(0)
    terms = WalkTerms(x, 1, state.var_part.values_vector(), state, hp)
    for _ in range(trials):
        mean, log_q, _log_q0 = terms.propose(0, rng)
        if mean.nonzero_count():
            hits += 1
            # hand-check log_q: categorical choice + conjugate value density
            v_post = 1.0 / 1.5 + 1.0 / 0.2
            u_post = (0.6 / 0.2) / v_post
            val = mean.inner.values[0]
            want = math.log(p_slab) + log_normal_pdf(val, u_post, 1.0 / v_post)
            assert log_q == pytest.approx(want, rel=1e-12)
        else:
            want = math.log(1.0 - p_slab)
            assert log_q == pytest.approx(want, rel=1e-12)
    se = math.sqrt(p_slab * (1 - p_slab) / trials)
    assert abs(hits / trials - p_slab) < 4 * se


def test_sequential_all_spike_when_rho_zero():
    y = np.array([[0.5, -0.2], [0.1, 0.3]])
    state, data, hp = manual_state(y, sigma_sq=[1.0, 1.0], attr_prob=0.0)
    rng = np.random.default_rng(1)
    terms = WalkTerms(np.array([0.5, -0.2]), 1, [1.0, 1.0], state, hp)
    mean, log_q, log_q0 = terms.propose(0, rng)
    assert mean.nonzero_count() == 0
    assert log_q == 0.0
    assert log_q0 == 0.0


def test_sequential_replay_identity_exact():
    state, data, hp = make_state(n=4, p=6, seed=5)
    state.attr_prob = np.full(6, 0.5)  # make slabs common
    rng = np.random.default_rng(2)
    x = data.y[0] - state.mean_part.values_vector()
    terms = WalkTerms(x, 1, state.var_part.values_vector(), state, hp)
    for _ in range(300):
        mean, log_q, log_q0 = terms.propose(0, rng)
        assert _scan_components(mean.inner, terms, 0) == (log_q, log_q0)  # bitwise


def test_sequential_p2_total_mass_one():
    """All outcome trees for p=2, integrating the value densities out with
    Gauss-Legendre quadrature over a wide bracket."""
    y = np.array([[0.4, -0.6], [0.2, 0.0]])
    state, data, hp = manual_state(y, sigma_sq=[0.5, 0.8], attr_prob=0.45, slab_var=1.2)
    x = np.array([0.4, -0.6])

    terms = WalkTerms(x, 1, state.var_part.values_vector(), state, hp)

    def q_of(mean):
        return _scan_components(mean.inner, terms, 0)[0]

    nodes, weights = np.polynomial.legendre.leggauss(160)
    lo, hi = -14.0, 14.0
    vs = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    ws = 0.5 * (hi - lo) * weights

    total = math.exp(q_of(ClusterMeanVector(2)))  # spike, spike
    for groups in ([[0]], [[1]], [[0, 1]]):
        total += sum(
            w * math.exp(q_of(ClusterMeanVector(2, build_partition(groups, [float(v)], 2))))
            for v, w in zip(vs, ws)
        )
    total += sum(
        w1 * w2 * math.exp(q_of(
            ClusterMeanVector(2, build_partition([[0], [1]], [float(v1), float(v2)], 2))))
        for v1, w1 in zip(vs, ws)
        for v2, w2 in zip(vs, ws)
    )
    assert total == pytest.approx(1.0, abs=1e-6)


# -- prior density q0 ---------------------------------------------------------


def _log_q0(mean, state, hp):
    """log Q0 of ``mean``; it does not depend on the data, so any x will do."""
    p = mean.inner.n_items
    return _scan_components(mean.inner, WalkTerms(np.full(p, 0.3), 1, np.ones(p), state, hp), 0)[1]


def _log_q0_discrete(mean, state, hp):
    """log Q0 of the spike pattern and inner partition alone: every unique
    value is 0.0, so each contributes log N(0; 0, slab_var)."""
    return _log_q0(mean, state, hp) - mean.inner_cluster_count() * log_normal_pdf(
        0.0, 0.0, state.slab_var)


def test_q0_all_zero_mean():
    state, data, hp = manual_state(np.zeros((2, 3)) + [[0.0], [1.0]],
                                   sigma_sq=[1.0] * 3, attr_prob=0.3)
    mean = ClusterMeanVector(3)
    s = _slab_coef(hp) * 0.3
    assert _log_q0(mean, state, hp) == pytest.approx(3 * math.log(1 - s), rel=1e-12)


def test_q0_single_slab_component():
    state, data, hp = manual_state(np.zeros((2, 3)) + [[0.0], [1.0]],
                                   sigma_sq=[1.0] * 3, attr_prob=0.3, slab_var=2.0)
    mean = ClusterMeanVector(3, build_partition([[1]], [0.7], 3))
    s = _slab_coef(hp) * 0.3
    want = math.log(s) + 2 * math.log(1 - s) + log_normal_pdf(0.7, 0.0, 2.0)
    assert _log_q0(mean, state, hp) == pytest.approx(want, rel=1e-12)


def _spike_patterns_and_partitions(p):
    """All (nonzero subset, partition of subset) structures for p components."""
    from itertools import combinations

    def set_partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in set_partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
            yield [[first]] + sub

    for r in range(p + 1):
        for subset in combinations(range(p), r):
            for part in set_partitions(list(subset)):
                yield part


def test_q0_discrete_part_sums_to_one_p3():
    state, data, hp = manual_state(np.zeros((2, 3)) + [[0.0], [1.0]],
                                   sigma_sq=[1.0] * 3, slab_var=1.3)
    state.attr_prob = np.array([0.2, 0.5, 0.8])
    state.conc_inner = 1.7
    total = 0.0
    for groups in _spike_patterns_and_partitions(3):
        mean = ClusterMeanVector(3, build_partition(groups, p=3))
        total += math.exp(_log_q0_discrete(mean, state, hp))
    assert total == pytest.approx(1.0, rel=1e-12)


def test_prior_sampler_matches_q0_frequencies():
    """sample_prior_mean's discrete outcome frequencies match exp(q0)."""
    y = np.array([[0.0, 0.0], [1.0, 1.0]])
    state, data, hp = manual_state(y, sigma_sq=[1.0, 1.0], attr_prob=0.5, slab_var=1.0)
    state.conc_inner = 0.6
    rng = np.random.default_rng(3)
    trials = 60_000
    counts = {}
    for _ in range(trials):
        mean = sample_prior_mean(2, state, hp, rng)
        key = []
        seen = {}
        for j, a in enumerate(mean.inner.labels.tolist()):
            if a == SPIKE:
                key.append(-1)
            else:
                key.append(seen.setdefault(a, len(seen)))
        counts[tuple(key)] = counts.get(tuple(key), 0) + 1
    for key, cnt in counts.items():
        groups = {}
        for j, g in enumerate(key):
            if g >= 0:
                groups.setdefault(g, []).append(j)
        mean = ClusterMeanVector(2, build_partition(list(groups.values()), p=2))
        want = math.exp(_log_q0_discrete(mean, state, hp))
        se = math.sqrt(want * (1 - want) / trials)
        assert abs(cnt / trials - want) < 4 * se + 1e-9


# -- independent extended-precision scorer ------------------------------------


def _mp_norm_logpdf(x, mean, var):
    x, mean, var = mpmath.mpf(x), mpmath.mpf(mean), mpmath.mpf(var)
    return -(mpmath.log(2 * mpmath.pi * var) + (x - mean) ** 2 / var) / 2


def _mp_score_sequential(mean, x, n_count, sigma_sq, attr_prob, slab_coef,
                         slab_var, conc_inner):
    """mpmath reimplementation of the sequential-proposal density."""
    p = len(x)
    counts, sprec, smean, cid_to_t, cids = [], [], [], {}, []
    logq = mpmath.mpf(0)
    m_total = 0
    for j in range(p):
        sj = mpmath.mpf(slab_coef) * mpmath.mpf(float(attr_prob[j]))
        v_obs = mpmath.mpf(float(sigma_sq[j])) / n_count
        w = [(1 - sj) * mpmath.e ** _mp_norm_logpdf(float(x[j]), 0, v_obs)]
        denom = conc_inner + m_total
        for t in range(len(counts)):
            v_post = 1 / mpmath.mpf(slab_var) + sprec[t]
            u_post = smean[t] / v_post
            w.append(sj * counts[t] / denom
                     * mpmath.e ** _mp_norm_logpdf(float(x[j]), u_post, 1 / v_post + v_obs))
        w.append(sj * conc_inner / denom
                 * mpmath.e ** _mp_norm_logpdf(float(x[j]), 0, mpmath.mpf(slab_var) + v_obs))

        a = int(mean.inner.labels[j])
        if a == SPIKE:
            choice = 0
        elif a in cid_to_t:
            choice = 1 + cid_to_t[a]
        else:
            choice = 1 + len(counts)
        logq += mpmath.log(w[choice] / sum(w))

        prec_j = mpmath.mpf(n_count) / mpmath.mpf(float(sigma_sq[j]))
        if choice == 0:
            continue
        if choice <= len(counts):
            t = choice - 1
            counts[t] += 1
            sprec[t] += prec_j
            smean[t] += prec_j * mpmath.mpf(float(x[j]))
        else:
            cid_to_t[a] = len(counts)
            cids.append(a)
            counts.append(1)
            sprec.append(prec_j)
            smean.append(prec_j * mpmath.mpf(float(x[j])))
        m_total += 1

    for t in range(len(counts)):
        v_post = 1 / mpmath.mpf(slab_var) + sprec[t]
        u_post = smean[t] / v_post
        val = mean.inner.values[cids[t]]
        logq += _mp_norm_logpdf(val, u_post, 1 / v_post)
    return logq


def test_eval_log_q_matches_mpmath_scorer():
    state, data, hp = make_state(n=4, p=5, seed=9)
    state.attr_prob = np.full(5, 0.6)
    rng = np.random.default_rng(4)
    x = data.y[2] - state.mean_part.values_vector()
    terms = WalkTerms(x, 1, state.var_part.values_vector(), state, hp)
    for _ in range(25):
        mean, log_q, _log_q0 = terms.propose(0, rng)
        want = _mp_score_sequential(
            mean, x, 1, state.var_part.values_vector(), state.attr_prob,
            _slab_coef(hp), state.slab_var, state.conc_inner,
        )
        assert log_q == pytest.approx(float(want), abs=1e-10)


# -- MH moves ----------------------------------------------------------------


def test_birth_ratio_recomputation_oracle(tiny_state):
    state, data, hp = tiny_state
    rng = np.random.default_rng(5)
    non_singleton = next(
        i for i in range(data.n)
        if state.samples.cluster_size(i) > 1
    )
    st = copy.deepcopy(state)
    accepted, info = mh_birth_move(st, data, hp, non_singleton, rng, _pass(st, data, hp))
    want = (
        mpmath.log(mpmath.mpf(state.conc_samples)) - mpmath.log(data.n - 1)
        + mpmath.mpf(info["log_f_new"]) - mpmath.mpf(info["log_f_old"])
        + mpmath.mpf(info["log_q0"]) - mpmath.mpf(info["log_q"])
    )
    assert info["log_ratio"] == pytest.approx(float(want), abs=1e-10)


def test_q_equal_q0_reduces_to_plain_ratio(tiny_state):
    """Removing the proposal correction leaves the unassisted-proposal ratio."""
    state, data, hp = tiny_state
    rng = np.random.default_rng(6)
    non_singleton = next(
        i for i in range(data.n)
        if state.samples.cluster_size(i) > 1
    )
    st = copy.deepcopy(state)
    _, info = mh_birth_move(st, data, hp, non_singleton, rng, _pass(st, data, hp))
    plain = (
        math.log(state.conc_samples) - math.log(data.n - 1)
        + info["log_f_new"] - info["log_f_old"]
    )
    assert info["log_ratio"] - (info["log_q0"] - info["log_q"]) == pytest.approx(
        plain, abs=1e-12
    )


def test_birth_death_pair_ratios_cancel():
    """A birth followed by the exactly reversing death multiplies to one."""
    state, data, hp = make_state(n=4, p=3, seed=31, require_multi=True)
    state.attr_prob = np.full(3, 0.5)
    rng = np.random.default_rng(7)
    for _ in range(200):
        st = copy.deepcopy(state)
        i = next(
            k for k in range(data.n)
            if st.samples.cluster_size(k) > 1
        )
        origin = st.samples.cluster_of(i)
        accepted, binfo = mh_birth_move(st, data, hp, i, rng, _pass(st, data, hp))
        if not accepted:
            continue
        # the reversing death targets the origin cluster
        mu_base, sigma_sq = _baselines(st)
        x = data.y[i] - mu_base
        own = st.cluster_means[st.samples.cluster_of(i)]
        log_q, log_q0 = _scan_components(own.inner, WalkTerms(x, 1, sigma_sq, st, hp), 0)
        bd = _pass(st, data, hp)
        log_f_origin = bd.loglik(i, st.cluster_means[origin])
        log_f_own = bd.loglik(i, own)
        death_ratio = (
            math.log(data.n - 1) - math.log(st.conc_samples)
            + log_f_origin - log_f_own + log_q - log_q0
        )
        assert binfo["log_ratio"] + death_ratio == pytest.approx(0.0, abs=1e-10)
        break
    else:
        pytest.fail("no accepted birth in 200 tries")


def test_death_move_single_target():
    """n=2 with a singleton: the other cluster is proposed with certainty."""
    state, data, hp = make_state(n=2, p=2, seed=1)
    while state.samples.n_clusters() != 2:
        state, data, hp = make_state(n=2, p=2, seed=state.conc_samples.__hash__() % 97)
    rng = np.random.default_rng(8)
    other = [c for c in state.samples.cluster_ids() if c != state.samples.cluster_of(0)][0]
    _, info = mh_death_move(copy.deepcopy(state), data, hp, 0, rng, _pass(state, data, hp))
    assert info["target"] == other


def test_death_ratio_recomputation_oracle():
    state, data, hp = make_state(n=4, p=3, seed=77, require_multi=True)
    singleton = next(
        (i for i in range(data.n)
         if state.samples.cluster_size(i) == 1),
        None,
    )
    if singleton is None:
        # force one: move a sample out of a big cluster
        sizes = dict(zip(state.samples.cluster_ids(), state.samples.sizes()))
        i = state.samples.members()[max(sizes, key=sizes.get)][0]
        cid = state.samples.move(i)
        state.cluster_means[cid] = ClusterMeanVector(data.p)
        state.incl_prob[cid] = np.full(data.p, 0.5)
        singleton = i
    rng = np.random.default_rng(9)
    _, info = mh_death_move(copy.deepcopy(state), data, hp, singleton, rng, _pass(state, data, hp))
    want = (
        mpmath.log(data.n - 1) - mpmath.log(mpmath.mpf(state.conc_samples))
        + mpmath.mpf(info["log_f_new"]) - mpmath.mpf(info["log_f_old"])
        + mpmath.mpf(info["log_q"]) - mpmath.mpf(info["log_q0"])
    )
    assert info["log_ratio"] == pytest.approx(float(want), abs=1e-10)


# -- Gibbs reassignment -------------------------------------------------------


def _reassign_inputs(state, data, hp):
    """The log-likelihood matrix and column order the reassignment pass uses:
    one column per cluster from the step's birth/death pass."""
    bd = _pass(state, data, hp)
    col_order = state.samples.cluster_ids()
    loglik = np.column_stack([bd.loglik_column(state.cluster_means[c]) for c in col_order])
    return loglik, col_order


def _scipy_log_f(state, data, i, c):
    from scipy.stats import norm

    mu_base, sig = _baselines(state)
    return norm.logpdf(data.y[i], mu_base + state.cluster_means[c].mu(), np.sqrt(sig)).sum()


def test_reassign_single_cluster_certain():
    state, data, hp = manual_state(np.array([[0.1, 0.2], [0.3, 0.4], [0.0, 0.1]]),
                                   sigma_sq=[1.0, 1.0])
    rng = np.random.default_rng(10)
    cid = state.samples.cluster_of(1)
    loglik, col_order = _reassign_inputs(state, data, hp)
    assert gibbs_reassign(state, data, hp, 1, rng, loglik[1], col_order) == cid


def test_reassign_logits_match_scipy_oracle():
    """Columns of all-spike clusters (the pass's zero-mean likelihoods) and
    of clusters with slab components (computed from the pass's residuals)."""
    state, data, hp = make_state(n=6, p=3, seed=13, require_multi=True)
    first = state.samples.cluster_ids()[0]
    state.cluster_means[first] = ClusterMeanVector(data.p)
    state.incl_prob[first] = np.full(data.p, 0.5)
    assert any(state.cluster_means[c].nonzero_count() for c in state.samples.cluster_ids())
    loglik, col_order = _reassign_inputs(state, data, hp)
    assert loglik.shape == (data.n, len(col_order))
    for i in range(data.n):
        for t, c in enumerate(col_order):
            assert loglik[i, t] == pytest.approx(_scipy_log_f(state, data, i, c), rel=1e-12)


def test_reassign_frequencies_follow_logits():
    state, data, hp = make_state(n=6, p=3, seed=13, require_multi=True)
    i = next(
        k for k in range(data.n)
        if state.samples.cluster_size(k) > 1
    )
    loglik, col_order = _reassign_inputs(state, data, hp)
    orig = state.samples.cluster_of(i)
    logw = np.array([
        math.log(size - (c == orig)) + _scipy_log_f(state, data, i, c)
        for c, size in zip(col_order, state.samples.sizes())
    ])
    probs = np.exp(logw - logw.max())
    probs /= probs.sum()
    rng = np.random.default_rng(11)
    counts = {c: 0 for c in col_order}
    trials = 40_000
    for _ in range(trials):
        got = gibbs_reassign(state, data, hp, i, rng, loglik[i], col_order)
        counts[got] += 1
        state.samples.move(i, orig)  # put the sample back for the next trial
    for t, c in enumerate(col_order):
        se = math.sqrt(probs[t] * (1 - probs[t]) / trials)
        assert abs(counts[c] / trials - probs[t]) < 4 * se + 1e-9


# -- inner mean Gibbs ---------------------------------------------------------


def _inner_pass(state, data, hp, cid, rng):
    """One inner Gibbs pass over cluster cid, as ``step_clusters`` runs it."""
    gibbs_update_cluster_mean(state, data, hp, cid, rng, *_baselines(state),
                              state.samples.members()[cid])


def test_inner_gibbs_rho_zero_forces_spike():
    y = np.array([[0.5, -0.1], [0.2, 0.3], [0.4, 0.0]])
    state, data, hp = manual_state(y, sigma_sq=[0.5, 0.5], attr_prob=0.0)
    cid = state.samples.cluster_ids()[0]
    rng = np.random.default_rng(12)
    _inner_pass(state, data, hp, cid, rng)
    assert state.cluster_means[cid].nonzero_count() == 0


def test_inner_gibbs_p1_two_way_frequencies():
    y = np.array([[0.45], [0.55]])
    state, data, hp = manual_state(y, sigma_sq=[0.3], attr_prob=0.5, slab_var=2.0)
    cid = state.samples.cluster_ids()[0]
    n_c = 2
    x = float(y.mean())  # baseline mean is zero
    s = _slab_coef(hp) * 0.5
    w0 = (1 - s) * math.exp(log_normal_pdf(x, 0.0, 0.3 / n_c))
    w1 = s * math.exp(log_normal_pdf(x, 0.0, 2.0 + 0.3 / n_c))
    p_slab = w1 / (w0 + w1)
    rng = np.random.default_rng(13)
    hits = 0
    trials = 40_000
    saved_mean = copy.deepcopy(state.cluster_means[cid])
    saved_row = state.incl_prob[cid].copy()
    for _ in range(trials):
        _inner_pass(state, data, hp, cid, rng)
        hits += state.cluster_means[cid].nonzero_count() > 0
        state.cluster_means[cid] = copy.deepcopy(saved_mean)
        state.incl_prob[cid] = saved_row.copy()
    se = math.sqrt(p_slab * (1 - p_slab) / trials)
    assert abs(hits / trials - p_slab) < 4 * se


def test_inner_gibbs_p2_pattern_frequencies_match_posterior():
    """Repeated in-place passes at p=2 visit the five spike/partition
    patterns with their exact posterior probabilities: the spike/CRP prior
    times the Gaussian marginal of x, whose covariance is
    slab_var * 11^T (restricted to the slab components, split by inner
    cluster) plus diag(sigma^2 / n). The chain is autocorrelated, so the
    standard errors come from batch means. Seed, pass count and the 4-SE
    bound were fixed before the first run."""
    from scipy.stats import multivariate_normal

    from sparseclust.diagnostics import batch_means_se

    y = np.array([[0.55, 0.35], [0.75, 0.25]])
    state, data, hp = manual_state(y, sigma_sq=[0.3, 0.5], attr_prob=0.5, slab_var=0.5)
    state.conc_inner = 0.8
    cid = state.samples.cluster_ids()[0]
    x = y.mean(axis=0)  # baseline mean is zero
    noise = np.diag([0.3, 0.5]) / 2
    s = _slab_coef(hp) * 0.5
    a = state.conc_inner
    slab = {"SS": [], "1S": [0], "S1": [1], "11": [0, 1], "12": [0, 1]}
    prior = {"SS": (1 - s) ** 2, "1S": s * (1 - s), "S1": (1 - s) * s,
             "11": s * s / (a + 1), "12": s * s * a / (a + 1)}
    weights = {}
    for key, comps in slab.items():
        cov = noise.copy()
        for j in comps:
            for k in comps:
                if key != "12" or j == k:
                    cov[j, k] += state.slab_var
        weights[key] = prior[key] * multivariate_normal(mean=[0.0, 0.0], cov=cov).pdf(x)
    total = sum(weights.values())

    def pattern(inner):
        a0, a1 = inner.labels.tolist()
        if a0 == SPIKE or a1 == SPIKE:
            return ("S" if a0 == SPIKE else "1") + ("S" if a1 == SPIKE else "1")
        return "11" if a0 == a1 else "12"

    rng = np.random.default_rng(21)
    passes = 40_000
    seen = []
    for _ in range(passes):
        _inner_pass(state, data, hp, cid, rng)
        seen.append(pattern(state.cluster_means[cid].inner))
    state.validate(data)
    for key, w in weights.items():
        hits = np.array([got == key for got in seen], dtype=float)
        want = w / total
        assert abs(hits.mean() - want) < 4 * batch_means_se(hits), (key, hits.mean(), want)


def test_inner_gibbs_value_redraw_moments():
    """The unique-value redraw matches the aggregated-precision posterior."""
    y = np.array([[0.45], [0.55]])
    state, data, hp = manual_state(y, sigma_sq=[0.3], attr_prob=0.999, slab_var=2.0)
    cid = state.samples.cluster_ids()[0]
    n_c = 2
    x = float(y.mean())
    v_post = 1.0 / 2.0 + n_c / 0.3
    u_post = (n_c * x / 0.3) / v_post
    rng = np.random.default_rng(14)
    vals = []
    saved_mean = copy.deepcopy(state.cluster_means[cid])
    saved_row = state.incl_prob[cid].copy()
    for _ in range(60_000):
        _inner_pass(state, data, hp, cid, rng)
        if state.cluster_means[cid].nonzero_count():
            vals.append(state.cluster_means[cid].mu()[0])
        state.cluster_means[cid] = copy.deepcopy(saved_mean)
        state.incl_prob[cid] = saved_row.copy()
    vals = np.array(vals)
    se = vals.std() / math.sqrt(len(vals))
    # slab probability is not 1, so condition on the slab outcome
    assert abs(vals.mean() - u_post) < 4 * se
    se_var = vals.var() * math.sqrt(2.0 / (len(vals) - 1))
    assert abs(vals.var() - 1.0 / v_post) < 6 * se_var


def test_inner_gibbs_keeps_pi_coupling(tiny_state):
    state, data, hp = tiny_state
    rng = np.random.default_rng(15)
    for cid in state.samples.cluster_ids():
        _inner_pass(state, data, hp, cid, rng)
    state.validate(data)
