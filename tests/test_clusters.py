import copy
import itertools
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from sparseclust import clusters
from sparseclust.clusters import (
    BirthDeathPass,
    ClusterMeanVector,
    WalkTerms,
    _seated_log_w,
    gibbs_reassign,
    gibbs_update_cluster_mean,
    mh_birth_move,
    mh_death_move,
)
from sparseclust.densities import SamplerAbort
from sparseclust.diagnostics import draw_prior_mean, measure_birth_acceptance
from sparseclust.partition import SPIKE, Partition
from sparseclust.sparsity import slab_coef

from conftest import build_partition, make_state, manual_state
from log_densities import log_normal_pdf
from test_component_walk import (
    _birth_pass,
    _proposal_bits,
    _reference_births_and_deaths,
    _reference_proposal,
    _reference_walk,
    _starts_block,
    _walk_from_spike,
)

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
    return bd.loglik(i, mean), bd.loglik_column(state, cid)[i]


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
    s = slab_coef(hp) * 0.4
    w_spike = (1 - s) * math.exp(log_normal_pdf(0.6, 0.0, 0.2))
    w_slab = s * math.exp(log_normal_pdf(0.6, 0.0, 1.5 + 0.2))  # gamma/(gamma+0) = 1
    p_slab = w_slab / (w_spike + w_slab)

    hits = 0
    trials = 40_000
    rng = np.random.default_rng(0)
    bd = _pass(state, data, hp)
    assert bd.x[0].tolist() == x.tolist()
    for _ in range(trials):
        mean, log_w = bd.propose(0, rng.random(1), rng)
        # hand-check log W = log F + log Q0 - log Q, with log Q the
        # categorical choice + conjugate value density
        if mean.nonzero_count():
            hits += 1
            v_post = 1.0 / 1.5 + 1.0 / 0.2
            u_post = (0.6 / 0.2) / v_post
            val = mean.inner.values[0]
            log_q = math.log(p_slab) + log_normal_pdf(val, u_post, 1.0 / v_post)
            log_q0 = math.log(s) + log_normal_pdf(val, 0.0, 1.5)
            want = log_normal_pdf(0.6, val, 0.2) + log_q0 - log_q
            assert log_w == pytest.approx(want, rel=1e-12)
        else:
            want = log_normal_pdf(0.6, 0.0, 0.2) + math.log(1.0 - s) - math.log(1.0 - p_slab)
            assert log_w == pytest.approx(want, rel=1e-12)
    se = math.sqrt(p_slab * (1 - p_slab) / trials)
    assert abs(hits / trials - p_slab) < 4 * se


def test_sequential_all_spike_when_rho_zero():
    y = np.array([[0.5, -0.2], [0.1, 0.3]])
    state, data, hp = manual_state(y, sigma_sq=[1.0, 1.0], attr_prob=0.0)
    rng = np.random.default_rng(1)
    bd = _pass(state, data, hp)
    mean, log_w = bd.propose(0, rng.random(2), rng)
    assert mean.nonzero_count() == 0
    # Every seat is SPIKE with probability 1, so Q = Q0 = 1 and W = F.
    assert log_w == pytest.approx(bd.zero_loglik[0], rel=1e-12)


def test_sequential_p2_total_mass_one():
    """All outcome trees for p=2, integrating the value densities out with
    Gauss-Legendre quadrature over a wide bracket: the proposal density
    that a death's score implies, Q = F Q0 / W, with W from the mean's
    seats (``_seated_log_w``) and Q0 from the reference walk."""
    y = np.array([[0.4, -0.6], [0.2, 0.0]])
    sigma_sq = [0.5, 0.8]
    state, data, hp = manual_state(y, sigma_sq=sigma_sq, attr_prob=0.45, slab_var=1.2)
    x = np.array([0.4, -0.6])

    terms = WalkTerms(x, 1, state.var_part.values_vector(), state, hp)

    def q_of(mean):
        log_f = sum(map(log_normal_pdf, x.tolist(), mean.mu().tolist(), sigma_sq))
        log_q0 = _reference_walk(mean.inner, x, 1, sigma_sq, state, hp)[1]
        return log_f + log_q0 - _seated_log_w(terms, 0, mean.inner)

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
    """log Q0 of ``mean`` by the reference walk; it does not depend on the
    data, so any x will do."""
    p = mean.inner.n_items
    return _reference_walk(mean.inner, np.full(p, 0.3), 1, np.ones(p), state, hp)[1]


def _log_q0_discrete(mean, state, hp):
    """log Q0 of the spike pattern and inner partition alone: every unique
    value is 0.0, so each contributes log N(0; 0, slab_var)."""
    return _log_q0(mean, state, hp) - mean.inner_cluster_count() * log_normal_pdf(
        0.0, 0.0, state.slab_var)


def test_q0_all_zero_mean():
    state, data, hp = manual_state(np.zeros((2, 3)) + [[0.0], [1.0]],
                                   sigma_sq=[1.0] * 3, attr_prob=0.3)
    mean = ClusterMeanVector(3)
    s = slab_coef(hp) * 0.3
    assert _log_q0(mean, state, hp) == pytest.approx(3 * math.log(1 - s), rel=1e-12)


def test_q0_single_slab_component():
    state, data, hp = manual_state(np.zeros((2, 3)) + [[0.0], [1.0]],
                                   sigma_sq=[1.0] * 3, attr_prob=0.3, slab_var=2.0)
    mean = ClusterMeanVector(3, build_partition([[1]], [0.7], 3))
    s = slab_coef(hp) * 0.3
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
    """draw_prior_mean's discrete outcome frequencies match exp(q0)."""
    y = np.array([[0.0, 0.0], [1.0, 1.0]])
    state, data, hp = manual_state(y, sigma_sq=[1.0, 1.0], attr_prob=0.5, slab_var=1.0)
    state.conc_inner = 0.6
    rng = np.random.default_rng(3)
    trials = 60_000
    counts = {}
    for _ in range(trials):
        mean = draw_prior_mean(
            slab_coef(hp) * state.attr_prob, state.conc_inner, state.slab_var, rng)
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
    """mpmath reimplementation of the sequential-proposal density: (log Q,
    log W), the second the sum of the log normalisers of the seat picks."""
    p = len(x)
    counts, sprec, smean, cid_to_t, cids = [], [], [], {}, []
    logq = logw = mpmath.mpf(0)
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
        logw += mpmath.log(sum(w))

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
    return logq, logw


def test_eval_log_q_matches_mpmath_scorer():
    """The kernel's proposals, scored in mpmath: the reference walk's log Q
    of each, and the kernel's log W."""
    state, data, hp = make_state(n=4, p=5, seed=9)
    state.attr_prob = np.full(5, 0.6)
    rng = np.random.default_rng(4)
    x = data.y[2] - state.mean_part.values_vector()
    sigma_sq = state.var_part.values_vector()
    bd = _pass(state, data, hp)
    for _ in range(25):
        mean, log_w = bd.propose(2, rng.random(5), rng)
        want_q, want_w = _mp_score_sequential(
            mean, x, 1, sigma_sq, state.attr_prob,
            slab_coef(hp), state.slab_var, state.conc_inner,
        )
        log_q = _reference_walk(mean.inner, x, 1, sigma_sq, state, hp)[0]
        assert log_q == pytest.approx(float(want_q), abs=1e-10)
        assert log_w == pytest.approx(float(want_w), abs=1e-10)


# -- MH moves ----------------------------------------------------------------


def _birth_parts(state, data, hp, i, u, rng):
    """The parts of the birth move's log ratio for sample i from the uniform
    row ``u``, each computed apart from the move: the proposal by the
    reference walk from a copy of ``rng``, its likelihood, and the
    likelihood under i's own cluster from the pass's column. Returns (log F
    new, log F old, log Q, log Q0)."""
    bd = _pass(state, data, hp)
    mean = ClusterMeanVector(data.p)
    log_q, log_q0, _log_z = _reference_walk(mean.inner, bd.x[i], 1, bd.sigma_sq, state, hp,
                                            u, copy.deepcopy(rng))
    log_f_old = bd.loglik_column(state, state.samples.cluster_of(i))[i]
    return bd.loglik(i, mean), log_f_old, log_q, log_q0


def _death_parts(state, data, hp, i, u):
    """The parts of the death move's log ratio for singleton i from the
    uniform row ``u``, each computed apart from the move: the target from
    u[0], the likelihoods from the pass's columns and the reverse birth from
    the reference walk's replay. Returns (target, log F new, log F old, log
    Q, log Q0)."""
    bd = _pass(state, data, hp)
    k = int(u[0] * (data.n - 1))
    target = state.samples.cluster_of(k + (k >= i))
    own = state.samples.cluster_of(i)
    log_q, log_q0, _log_z = _reference_walk(state.cluster_means[own].inner, bd.x[i], 1,
                                            bd.sigma_sq, state, hp)
    return (target, bd.loglik_column(state, target)[i], bd.loglik_column(state, own)[i],
            log_q, log_q0)


def test_birth_ratio_recomputation_oracle(tiny_state):
    state, data, hp = tiny_state
    rng = np.random.default_rng(5)
    non_singleton = next(
        i for i in range(data.n)
        if state.samples.cluster_size(i) > 1
    )
    u = rng.random(data.p + 1)
    log_f_new, log_f_old, log_q, log_q0 = _birth_parts(state, data, hp, non_singleton, u, rng)
    st = copy.deepcopy(state)
    _accepted, log_ratio = mh_birth_move(st, non_singleton, rng, _pass(st, data, hp), u)
    want = (
        mpmath.log(mpmath.mpf(state.conc_samples)) - mpmath.log(data.n - 1)
        + mpmath.mpf(log_f_new) - mpmath.mpf(log_f_old)
        + mpmath.mpf(log_q0) - mpmath.mpf(log_q)
    )
    assert log_ratio == pytest.approx(float(want), abs=1e-10)


def test_q_equal_q0_reduces_to_plain_ratio(tiny_state):
    """Removing the proposal correction leaves the unassisted-proposal ratio."""
    state, data, hp = tiny_state
    rng = np.random.default_rng(6)
    non_singleton = next(
        i for i in range(data.n)
        if state.samples.cluster_size(i) > 1
    )
    u = rng.random(data.p + 1)
    log_f_new, log_f_old, log_q, log_q0 = _birth_parts(state, data, hp, non_singleton, u, rng)
    st = copy.deepcopy(state)
    _, log_ratio = mh_birth_move(st, non_singleton, rng, _pass(st, data, hp), u)
    plain = (
        math.log(state.conc_samples) - math.log(data.n - 1)
        + log_f_new - log_f_old
    )
    assert log_ratio - (log_q0 - log_q) == pytest.approx(plain, abs=1e-12)


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
        accepted, birth_ratio = mh_birth_move(st, i, rng, _pass(st, data, hp),
                                              rng.random(data.p + 1))
        if not accepted:
            continue
        # the reversing death targets the origin cluster; its reverse birth
        # is scored by the reference walk's replay
        bd = _pass(st, data, hp)
        own = st.samples.cluster_of(i)
        log_q, log_q0, _log_z = _reference_walk(st.cluster_means[own].inner, bd.x[i], 1,
                                                bd.sigma_sq, st, hp)
        death_ratio = (
            math.log(data.n - 1) - math.log(st.conc_samples)
            + bd.loglik_column(st, origin)[i] - bd.loglik_column(st, own)[i]
            + log_q - log_q0
        )
        assert birth_ratio + death_ratio == pytest.approx(0.0, abs=1e-10)
        break
    else:
        pytest.fail("no accepted birth in 200 tries")


def test_death_move_single_target():
    """n=2 with a singleton: the other cluster is proposed with certainty,
    and an accepted death moves the sample there."""
    state, data, hp = make_state(n=2, p=2, seed=1)
    while state.samples.n_clusters() != 2:
        state, data, hp = make_state(n=2, p=2, seed=state.conc_samples.__hash__() % 97)
    rng = np.random.default_rng(8)
    other = [c for c in state.samples.cluster_ids() if c != state.samples.cluster_of(0)][0]
    u = rng.random(data.p + 1)
    target, log_f_new, log_f_old, log_q, log_q0 = _death_parts(state, data, hp, 0, u)
    assert target == other
    st = copy.deepcopy(state)
    bd = _pass(state, data, hp)
    accepted, log_ratio = mh_death_move(st, 0, bd, u)
    log_w = _seated_log_w(bd, 0, state.cluster_means[state.samples.cluster_of(0)].inner)
    assert log_ratio == (math.log(data.n - 1) - math.log(state.conc_samples)
                         + log_f_new - log_w)
    assert log_ratio == pytest.approx(math.log(data.n - 1) - math.log(state.conc_samples)
                                      + log_f_new - log_f_old + log_q - log_q0, rel=1e-12)
    assert st.samples.cluster_of(0) == (other if accepted else state.samples.cluster_of(0))


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
        singleton = i
    rng = np.random.default_rng(9)
    u = rng.random(data.p + 1)
    _target, log_f_new, log_f_old, log_q, log_q0 = _death_parts(state, data, hp, singleton, u)
    _, log_ratio = mh_death_move(copy.deepcopy(state), singleton, _pass(state, data, hp), u)
    want = (
        mpmath.log(data.n - 1) - mpmath.log(mpmath.mpf(state.conc_samples))
        + mpmath.mpf(log_f_new) - mpmath.mpf(log_f_old)
        + mpmath.mpf(log_q) - mpmath.mpf(log_q0)
    )
    assert log_ratio == pytest.approx(float(want), abs=1e-10)


# -- Gibbs reassignment -------------------------------------------------------


def _reassign_inputs(state, data, hp):
    """The log-likelihood matrix and column order the reassignment pass uses:
    one column per cluster from the step's birth/death pass."""
    bd = _pass(state, data, hp)
    col_order = state.samples.cluster_ids()
    loglik = np.column_stack([bd.loglik_column(state, c) for c in col_order])
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
    assert gibbs_reassign(state, loglik[1], col_order, 1, rng.random(),
                          state.samples.sizes()) == cid


def test_reassign_logits_match_scipy_oracle():
    """Columns of all-spike clusters (the pass's zero-mean likelihoods) and
    of clusters with slab components (computed from the pass's residuals)."""
    state, data, hp = make_state(n=6, p=3, seed=13, require_multi=True)
    first = state.samples.cluster_ids()[0]
    state.cluster_means[first] = ClusterMeanVector(data.p)
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
        got = gibbs_reassign(state, loglik[i], col_order, i, rng.random(), state.samples.sizes())
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
    s = slab_coef(hp) * 0.5
    w0 = (1 - s) * math.exp(log_normal_pdf(x, 0.0, 0.3 / n_c))
    w1 = s * math.exp(log_normal_pdf(x, 0.0, 2.0 + 0.3 / n_c))
    p_slab = w1 / (w0 + w1)
    rng = np.random.default_rng(13)
    hits = 0
    trials = 40_000
    saved_mean = copy.deepcopy(state.cluster_means[cid])
    for _ in range(trials):
        _inner_pass(state, data, hp, cid, rng)
        hits += state.cluster_means[cid].nonzero_count() > 0
        state.cluster_means[cid] = copy.deepcopy(saved_mean)
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
    s = slab_coef(hp) * 0.5
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
    for _ in range(60_000):
        _inner_pass(state, data, hp, cid, rng)
        if state.cluster_means[cid].nonzero_count():
            vals.append(state.cluster_means[cid].mu()[0])
        state.cluster_means[cid] = copy.deepcopy(saved_mean)
    vals = np.array(vals)
    se = vals.std() / math.sqrt(len(vals))
    # slab probability is not 1, so condition on the slab outcome
    assert abs(vals.mean() - u_post) < 4 * se
    se_var = vals.var() * math.sqrt(2.0 / (len(vals) - 1))
    assert abs(vals.var() - 1.0 / v_post) < 6 * se_var


def test_inner_gibbs_keeps_state_valid(tiny_state):
    state, data, hp = tiny_state
    rng = np.random.default_rng(15)
    for cid in state.samples.cluster_ids():
        _inner_pass(state, data, hp, cid, rng)
    state.validate(data)


# -- the sample-partition law of step 5 ----------------------------------------


def test_step5_partition_law_matches_exact_enumeration():
    """Repeated ``step_clusters`` at n = 3, p = 1, with the baselines,
    attr_prob, slab_var and the concentrations held fixed, visits the five
    sample partitions with their exact posterior probabilities: CRP(conc_samples)
    times, per cluster, the spike/slab marginal of its members' y with the
    mean integrated out, (1 - s) prod N(y_i; mu, sigma^2) + s N(y; mu 1,
    sigma^2 I + slab_var 11^T), s = slab_coef * rho. At p = 1 a slab mean is
    one inner cluster whatever conc_inner is. The chain is autocorrelated, so
    the standard errors come from batch means. y, the seed, the sweep count
    and the 4-SE bound were fixed before the first run; the likeliest
    partition carries 0.29 of the mass. At p = 1 every walk scores its one
    component with no member seated, so ``_BLOCK_CELLS`` and ``_LIVE_RUN``
    never change its path."""
    from scipy.stats import multivariate_normal

    from sparseclust.diagnostics import batch_means_se

    y = np.array([[-0.5], [0.3], [1.6]])
    sigma_sq, rho, slab_var, conc = 0.4, 0.6, 1.5, 1.0
    state, data, hp = manual_state(y, sigma_sq=[sigma_sq], attr_prob=rho,
                                   slab_var=slab_var, concs=conc)
    s = slab_coef(hp) * rho
    weights = {}
    # Canonical labels (first appearance) of each partition of {0, 1, 2}.
    for key in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)):
        w = conc ** (max(key) + 1) / (conc * (conc + 1) * (conc + 2))
        for c in set(key):
            members = y[[i for i, k in enumerate(key) if k == c], 0]
            m = len(members)
            w *= math.factorial(m - 1) * (
                (1 - s) * math.exp(sum(log_normal_pdf(v, 0.0, sigma_sq) for v in members))
                + s * multivariate_normal(np.zeros(m), sigma_sq * np.eye(m)
                                          + slab_var * np.ones((m, m))).pdf(members))
        weights[key] = w
    total = sum(weights.values())
    assert max(weights.values()) / total < 0.6

    rng = np.random.default_rng(23)
    seen = []
    for _ in range(10_000):
        clusters.step_clusters(state, data, hp, rng)
        seen.append(tuple(state.samples.canonical()[0].tolist()))
    state.validate(data)
    for key, w in weights.items():
        hits = np.array([got == key for got in seen], dtype=float)
        want = w / total
        assert abs(hits.mean() - want) < 4 * batch_means_se(hits), (key, hits.mean(), want)


# -- the birth/death pass ------------------------------------------------------

BIT_GENERATORS = ("PCG64", "MT19937", "Philox", "SFC64")


def _record_moves(monkeypatch):
    """Record each birth or death move the pass runs as (move, sample) when
    it starts, then (move, sample, accepted, stopped) when it returns,
    stopped being whether a birth's walk was stopped (its log ratio is
    None)."""
    moved = []
    for kind in ("birth", "death"):

        def recording(state, i, *args, move=getattr(clusters, f"mh_{kind}_move"), kind=kind):
            moved.append((kind, i))
            accepted, log_ratio = move(state, i, *args)
            moved[-1] += (accepted, log_ratio is None)
            return accepted, log_ratio

        monkeypatch.setattr(clusters, f"mh_{kind}_move", recording)
    return moved


def _skip_state(seed):
    """A prior draw of 24 samples in several clusters, most components
    favouring SPIKE (so most rows start a block at component 0, and some
    proposals leave SPIKE), and a concentration that makes births rare or
    common."""
    state, data, hp = make_state(n=24, p=5, seed=seed, require_multi=True)
    rng = np.random.default_rng(seed + 1000)
    state.attr_prob = rng.choice([1e-3, 0.02, 0.3], size=data.p, p=[0.5, 0.3, 0.2])
    state.conc_samples = float(rng.choice([0.5, 3.0, 20.0]))
    return state, data, hp


_screened_births = BirthDeathPass.screened_births


def _no_screen(bd, state, u, log_f_old):
    """``BirthDeathPass.screened_births`` arming every walk's stop but
    marking no row."""
    _screened_births(bd, state, u, log_f_old)
    return np.zeros(len(u), dtype=bool)


def test_skipped_births_match_per_sample_moves(monkeypatch):
    """The birth/death pass, which skips the rows its screen marks and stops
    the walks its bound proves to reject, leaves the state and the
    generator where the per-sample reference pass leaves them, which skips
    the same rows, walks every other birth in full and draws the values of
    the births it accepts only: on each bit generator, through the cases
    around a skipped or stopped row. The passes run once with the screen
    and once with it marking no row; then every birth it would mark stops
    at component 0 of its walk."""
    for screen in (True, False):
        seen = dict.fromkeys(
            ("skipped or stopped row followed by an accepted birth", "proposal off SPIKE",
             "singleton after a skipped or stopped row", "skipped or stopped at sample n - 1",
             "stopped birth", "screened row" if screen else "birth the screen would mark"), 0)
        for bit_generator in BIT_GENERATORS:
            for seed in range(30):
                with monkeypatch.context() as patch:
                    if not screen:
                        patch.setattr(BirthDeathPass, "screened_births", _no_screen)
                    state, data, hp = _skip_state(seed)
                    ref = copy.deepcopy(state)
                    rng, ref_rng = (np.random.Generator(getattr(np.random, bit_generator)(seed))
                                    for _ in range(2))
                    moves = _record_moves(monkeypatch)
                    bd = _pass(state, data, hp)
                    clusters._births_and_deaths(state, rng, bd)
                    monkeypatch.undo()
                    events = _reference_births_and_deaths(ref, data, ref_rng, _pass(ref, data, hp))

                got, want = state.to_dict(), ref.to_dict()
                assert got["samples"] == want["samples"], (bit_generator, seed)
                assert got["cluster_means"] == want["cluster_means"], (bit_generator, seed)
                assert got == want, (bit_generator, seed)
                # Equal next draws: the two generators stand at the same position.
                assert rng.random(4).tolist() == ref_rng.random(4).tolist(), (bit_generator, seed)

                n = data.n
                screened = [i for i, event in enumerate(events) if event[0] == "screened"]
                assert [i for _kind, i, _acc, _stop in moves] == [
                    i for i in range(n) if i not in screened], (bit_generator, seed)
                stopped = set(screened)
                for kind, i, accepted, stop in moves:
                    # A stopped birth is one the reference rejects.
                    assert (kind, accepted) == events[i][::2], (bit_generator, seed, i)
                    if stop:
                        stopped.add(i)
                        seen["stopped birth"] += 1
                if screen:
                    seen["screened row"] += len(screened)
                else:
                    marked = bd.rest[:, 0] <= bd.floor
                    for kind, i, _accepted, stop in moves:
                        assert stop or not (kind == "birth" and marked[i]), (bit_generator, seed, i)
                        seen["birth the screen would mark"] += kind == "birth" and bool(marked[i])
                for i in stopped:
                    if i + 1 < n:
                        move, _left_spike, accepted = events[i + 1]
                        seen["skipped or stopped row followed by an accepted birth"] += (
                            move == "birth" and accepted)
                        seen["singleton after a skipped or stopped row"] += move == "death"
                seen["skipped or stopped at sample n - 1"] += n - 1 in stopped
                for _move, left_spike, _accepted in events:
                    seen["proposal off SPIKE"] += bool(left_spike)  # None where screened
        assert all(seen.values()), (screen, seen)


def test_abort_names_the_sample_after_skipped_rows(monkeypatch):
    """A non-finite row among rows the pass skips is not marked, so its own
    birth move runs and aborts, with the message of the per-sample pass
    naming the move and the sample, and the state and the generator where
    the per-sample pass leaves them."""
    bad, p = 6, 5
    y = np.random.default_rng(2).normal(0.0, 0.1, size=(10, p))
    state, data, hp = manual_state(y, sigma_sq=[0.01] * p, attr_prob=1e-3)
    data.y[bad, 3] = np.inf  # past DataMatrix's check
    ref = copy.deepcopy(state)
    moves = _record_moves(monkeypatch)
    bd = _pass(state, data, hp)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(SamplerAbort) as skip_abort:
        clusters._births_and_deaths(state, rng, bd)
    monkeypatch.undo()
    assert _starts_block(bd, bad) and math.isnan(bd.floor[bad])  # never stopped
    with pytest.raises(SamplerAbort) as reference_abort:
        _reference_births_and_deaths(ref, data, ref_rng, _pass(ref, data, hp))

    message = str(skip_abort.value)
    assert message == f"birth proposal i={bad}: all log weights are -inf"
    assert message == str(reference_abort.value)
    assert moves == [("birth", bad)]  # every row before it was skipped
    assert state.to_dict() == ref.to_dict()
    assert rng.random(4).tolist() == ref_rng.random(4).tolist()


def test_birth_death_pass_matches_reference_pass(monkeypatch):
    """The birth/death pass leaves the state and the generator where the
    per-sample reference pass leaves them, whose births ``_reference_walk``
    draws in full, in math's exp and log, scored by log F + log Q0 - log Q,
    and which draws the values of accepted births only: the same moves but
    for the screened births both skip, each birth the pass stopped one the
    reference rejects; on each bit generator, through a start non-singleton
    that has become a singleton by its turn (its death move runs), a
    singleton that has become a non-singleton (its birth walks when
    reached), a stopped birth and an accepted one."""
    seen = dict.fromkeys(("non-singleton became a singleton", "singleton walked when reached",
                          "birth stopped", "birth accepted"), 0)
    for bit_generator in BIT_GENERATORS:
        for seed in range(30):
            sides = []
            for reference in (False, True):
                state, data, hp = _skip_state(seed)
                singletons = (state.samples.counts[state.samples.labels] == 1).tolist()
                bd = _pass(state, data, hp)
                rng = np.random.Generator(getattr(np.random, bit_generator)(seed))
                if reference:
                    moves = _reference_births_and_deaths(state, data, rng, bd,
                                                         _reference_proposal(bd, state, hp))
                else:
                    moves = _record_moves(monkeypatch)
                    clusters._births_and_deaths(state, rng, bd)
                    monkeypatch.undo()
                sides.append((state.to_dict(), _generator_state(rng), moves))
            (*got, moves), (*want, events) = sides
            assert got == want, (bit_generator, seed)
            walked = [i for i, event in enumerate(events) if event[0] != "screened"]
            assert [i for _kind, i, _acc, _stop in moves] == walked, (bit_generator, seed)
            for kind, i, accepted, stopped in moves:
                assert (kind, accepted) == events[i][::2], (bit_generator, seed, i)
                seen["non-singleton became a singleton"] += kind == "death" and not singletons[i]
                seen["singleton walked when reached"] += kind == "birth" and singletons[i]
                seen["birth stopped"] += stopped
                seen["birth accepted"] += kind == "birth" and accepted
    assert all(seen.values()), seen



def test_lockstep_pass_value_tail_matches_scalar_tail():
    """The pass's value tail (one array draw per birth its stop leaves)
    gives every such proposal the partition, values and log likelihood, bit
    for bit, of the per-sample reference pass's proposal for that sample,
    whose births ``_reference_walk`` draws with its scalar tail, and its log
    W to rounding (the reference takes log F + log Q0 - log Q in math's exp
    and log); the state and the generator end bit for bit where the
    reference leaves them, on each bit generator, through a birth that drew
    values and a singleton that has become a non-singleton (walked when
    reached). The test's name is the one it had when the pass seated its
    births in lockstep."""
    seen = dict.fromkeys(("birth drew values", "singleton walked when reached"), 0)
    for bit_generator in BIT_GENERATORS:
        for seed in range(30):
            sides = []
            for reference in (False, True):
                state, data, hp = _skip_state(seed)
                singletons = (state.samples.counts[state.samples.labels] == 1).tolist()
                bd = _pass(state, data, hp)
                walk = _reference_proposal(bd, state, hp) if reference else bd.propose
                proposals = {}

                def recording(i, u, rng, walk=walk, bd=bd, proposals=proposals):
                    proposal = walk(i, u, rng)
                    if proposal[0] is not None:
                        proposals[i] = _proposal_bits(bd, i, proposal)
                    return proposal

                rng = np.random.Generator(getattr(np.random, bit_generator)(seed))
                if reference:
                    _reference_births_and_deaths(state, data, rng, bd, recording)
                else:
                    bd.propose = recording
                    clusters._births_and_deaths(state, rng, bd)
                sides.append((state.to_dict(), _generator_state(rng), proposals))
            (*got, proposals), (*want, ref) = sides
            assert got == want, (bit_generator, seed)
            for i, (inner, log_w, log_f) in proposals.items():
                ref_inner, ref_w, ref_f = ref[i]
                assert (inner, log_f) == (ref_inner, ref_f), (bit_generator, seed, i)
                assert float.fromhex(log_w) == pytest.approx(float.fromhex(ref_w), rel=1e-12)
                seen["birth drew values"] += bool(inner["counts"])
                seen["singleton walked when reached"] += singletons[i]
    assert all(seen.values()), seen


def _check_births(monkeypatch, births):
    """Make ``BirthDeathPass.propose`` check each birth proposal against the
    scalar walk from an all-SPIKE mean with no stop, handed the same
    uniforms and a copy of the generator: a proposal the stop left is that
    walk's draw, the same seats, values and log W, with the generator where
    that walk leaves it, and a death's score of its seats gives back its log
    W to rounding; a stopped one leaves the generator untouched. Records
    each proposal's row, whether it stopped and whether the full walk left
    SPIKE in ``births``."""
    propose = BirthDeathPass.propose

    def checking(bd, i, u, rng):
        walk_rng, before = copy.deepcopy(rng), _generator_state(rng)
        proposal = mean, log_w = propose(bd, i, u, rng)
        full = _walk_from_spike(bd, i, u, walk_rng)
        if mean is None:
            assert _generator_state(rng) == before, i
        else:
            assert _proposal_bits(bd, i, proposal) == _proposal_bits(bd, i, full), i
            assert rng.bit_generator.state == walk_rng.bit_generator.state, i
            assert _seated_log_w(bd, i, mean.inner) == pytest.approx(log_w, rel=1e-12), i
        births.append((i, mean is None, full[0].inner.n_clusters() > 0))
        return proposal

    monkeypatch.setattr(BirthDeathPass, "propose", checking)


def test_lone_birth_is_the_scalar_walk(monkeypatch):
    """Every birth proposal is walked alone: of the pass, of a start
    non-singleton the screen left or of a singleton that has become a
    non-singleton by its turn, it is the scalar walk's draw from an
    all-SPIKE mean with the same uniforms and generator, or a walk that the
    stop ended, which drew nothing. A ``measure_birth_acceptance`` attempt
    is the scalar walk's draw too, and is never stopped."""
    seen = dict.fromkeys(("singleton walked when reached", "stopped", "walked in full",
                          "attempt walked", "proposal off SPIKE"), 0)
    for seed in range(30):
        state, data, hp = _skip_state(seed)
        samples = state.samples
        start_singletons = samples.counts[samples.labels] == 1
        births = []
        _check_births(monkeypatch, births)
        bd = _pass(state, data, hp)
        clusters._births_and_deaths(state, np.random.default_rng(seed), bd)
        screened = bd.rest[:, 0] <= bd.floor
        for i, stopped, left in births:
            assert start_singletons[i] or not screened[i], (seed, i)
            seen["singleton walked when reached"] += bool(start_singletons[i])
            seen["stopped" if stopped else "walked in full"] += 1
            seen["proposal off SPIKE"] += left

        # Outside a pass no walk is stopped.
        del births[:]
        if (samples.counts[samples.labels] > 1).any():
            measure_birth_acceptance(state, data, hp, np.random.default_rng(seed), 5)
            assert len(births) == 5 and not any(stopped for _i, stopped, _left in births), seed
            seen["attempt walked"] += 5
        monkeypatch.undo()
    assert all(seen.values()), seen


# -- the screen ----------------------------------------------------------------


def _screen_terms(bd, state, hp, i):
    """The screen's per-component terms of row i, in math: log((1 - s_j)
    N(x_ij; 0, v_j) + s_j / sqrt(2 pi v_j)), each at least the log
    normaliser of any pick at component j."""
    return [math.log((1.0 - slab_coef(hp) * a) * math.exp(log_normal_pdf(x, 0.0, v))
                     + slab_coef(hp) * a / math.sqrt(2.0 * math.pi * v))
            for x, v, a in zip(bd.x[i].tolist(), bd.sigma_sq.tolist(), state.attr_prob.tolist())]


def _dense_state(seed):
    """A prior draw of 16 samples in several clusters with attr_prob near 1
    on most components, so that birth proposals seat several inner
    clusters."""
    state, data, hp = make_state(n=16, p=8, seed=500 + seed, require_multi=True)
    rng = np.random.default_rng(seed + 2000)
    state.attr_prob = rng.choice([0.05, 0.9, 0.999], size=data.p, p=[0.2, 0.4, 0.4])
    state.conc_samples = float(rng.choice([0.5, 3.0, 20.0]))
    return state, data, hp


def test_screen_bound_holds_for_walked_proposals():
    """At every component J of every proposal walked for row i, the log
    normalisers summed over the components before J plus rest[i, J], the
    screen's terms summed from J on, are at least the walk's log W, and
    above it at J = 0. The normalisers are the reference walk's from the
    same uniforms, the walk is the scalar walk with no stop, and rest is
    both the pass's (``screened_births``, in numpy) and in math, the two
    equal to rounding. On the ``_birth_pass`` kinds' passes, among them
    dense ones (attr_prob 0.9, and 1 - 1e-9 with rows that seat every
    component off SPIKE), and on the passes of prior draws with sparse and
    with dense attr_prob. The states and seeds were fixed before the first
    run."""
    seen = dict.fromkeys(("3+ inner clusters", "never off SPIKE", "member total p"), 0)
    passes = [_birth_pass(kind, seed)
              for kind in ("dense", "full", "live", "mixed", "spike") for seed in range(6)]
    for make in (_skip_state, _dense_state):
        for seed in range(10):
            state, data, hp = make(seed)
            passes.append((state, hp, _pass(state, data, hp)))
    for seed, (state, hp, bd) in enumerate(passes):
        n, p = bd.x.shape
        rng = np.random.default_rng(seed)
        u = rng.random((n, p + 1))
        bd.screened_births(state, u, np.zeros(n))
        for i in range(n):
            mean, log_w = _walk_from_spike(bd, i, u[i], rng)
            log_zs = []
            _reference_walk(ClusterMeanVector(p).inner, bd.x[i], 1, bd.sigma_sq, state, hp,
                            u[i], np.random.default_rng(seed), log_zs)
            assert math.fsum(log_zs) == pytest.approx(log_w, rel=1e-12), (seed, i)
            rest = list(itertools.accumulate(reversed(_screen_terms(bd, state, hp, i))))[::-1]
            rest.append(0.0)
            assert log_w < rest[0], (seed, i)
            assert bd.rest[i].tolist() == pytest.approx(rest, rel=1e-12, abs=1e-12), (seed, i)
            slack = 1e-12 * (abs(log_w) + 1.0)
            for j in range(p + 1):
                assert math.fsum(log_zs[:j]) + rest[j] >= log_w - slack, (seed, i, j)
            seen["3+ inner clusters"] += mean.inner_cluster_count() >= 3
            seen["never off SPIKE"] += mean.nonzero_count() == 0
            seen["member total p"] += mean.nonzero_count() == p
    assert all(seen.values()), seen


def test_screened_rows_reject_when_walked():
    """Every birth that ``screened_births`` marks among the pass's
    non-singletons, or whose walk the pass's stop ends, rejects when walked
    in full: its birth move, run on a copy of the state with a pass that
    arms no stop and a copy of the generator, does not accept. A marked row's
    walk stops at component 0, and a stopped birth move rejects and leaves
    the generator and the state untouched. On prior draws with sparse and
    with dense attr_prob, the MH uniforms are the pass's own draw, then
    placed 1e-6 (relative, plus 1e-6) above and below the threshold exp(log
    conc - log(n - 1) - log F_old + B_i), with B_i and F_old in math: the
    screen marks every row placed above, and none placed below. The states
    and seeds were fixed before the first run."""
    seen = dict.fromkeys(("marked from the pass's draw", "marked at the threshold",
                          "marked proposal off SPIKE", "stopped after component 0",
                          "stopped proposal off SPIKE"), 0)
    for make in (_skip_state, _dense_state):
        for seed in range(30):
            state, data, hp = make(seed)
            samples = state.samples
            n, p = data.n, data.p
            bd = _pass(state, data, hp)
            rng = np.random.default_rng(seed)
            u = rng.random((n, p + 1))
            births = samples.counts[samples.labels] > 1
            log_f_old = bd.own_loglik(state)
            mu_base, sigma_sq = _baselines(state)
            threshold = []
            for i in range(n):
                mu = mu_base + state.cluster_means[samples.cluster_of(i)].mu()
                own = sum(log_normal_pdf(y, m, v) for y, m, v in
                          zip(data.y[i].tolist(), mu.tolist(), sigma_sq.tolist()))
                threshold.append(math.log(state.conc_samples) - math.log(n - 1) - own
                                 + sum(_screen_terms(bd, state, hp, i)))
            for place in ("drawn", "above", "below"):
                v = u.copy()
                placed = np.zeros(n, dtype=bool)
                if place != "drawn":
                    for i, t in enumerate(threshold):
                        shifted = t + (1e-6 if place == "above" else -1e-6) * (abs(t) + 1.0)
                        if shifted < 0.0:
                            v[i, p] = math.exp(shifted)
                            placed[i] = True
                marked = births & bd.screened_births(state, v, log_f_old)
                if place == "above":
                    assert marked[births & placed].all(), seed
                elif place == "below":
                    assert not marked[placed].any(), seed
                for i in np.flatnonzero(births).tolist():
                    walk_state, walk_rng = copy.deepcopy(state), copy.deepcopy(rng)
                    accepted, log_ratio = mh_birth_move(walk_state, i, walk_rng,
                                                        copy.deepcopy(bd), v[i])
                    stopped = log_ratio is None
                    assert stopped or not marked[i], (seed, place, i)
                    if not stopped:
                        continue
                    assert not accepted, (seed, place, i)
                    assert walk_state.to_dict() == state.to_dict(), (seed, place, i)
                    assert walk_rng.bit_generator.state == rng.bit_generator.state, (seed, place, i)
                    full_state = copy.deepcopy(state)
                    full_accepted, _log_ratio = mh_birth_move(
                        full_state, i, copy.deepcopy(rng), _pass(full_state, data, hp), v[i])
                    assert not full_accepted, (seed, place, i)
                    full_mean = _walk_from_spike(bd, i, v[i], copy.deepcopy(rng))[0]
                    off_spike = full_mean.nonzero_count() > 0
                    if marked[i]:
                        seen["marked from the pass's draw" if place == "drawn"
                             else "marked at the threshold"] += 1
                        seen["marked proposal off SPIKE"] += off_spike
                    else:
                        seen["stopped after component 0"] += 1
                        seen["stopped proposal off SPIKE"] += off_spike
    assert all(seen.values()), seen


# -- the reassignment pass ----------------------------------------------------


def _reassign_state(labels):
    """A state whose sample partition has ``labels`` (slot t holding cluster
    id t): all of a state the reassignment pass reads."""
    counts = np.bincount(labels)
    return SimpleNamespace(samples=Partition(labels.copy(), counts, np.zeros(len(counts))))


def _reference_reassignments(state, rng, loglik, col_order):
    """The per-sample pass that the one-cluster draw must reproduce bit for
    bit: ``gibbs_reassign`` of every non-singleton, in sample order, each
    handed one scalar draw and the cluster sizes read afresh (the pass keeps
    them from move to move). Returns the number of calls and, per move,
    (sample, whether it left a 2-member cluster whose other member comes
    later, whether it joined a singleton that comes later)."""
    samples = state.samples
    calls, moves = 0, []
    for i in range(len(loglik)):
        if samples.cluster_size(i) > 1:
            before = samples.labels.copy()
            gibbs_reassign(state, loglik[i], col_order, i, rng.random(), samples.sizes())
            calls += 1
            s, t = before[i], samples.labels.item(i)
            if t != s:
                left, joined = np.flatnonzero(before == s), np.flatnonzero(before == t)
                moves.append((i, len(left) == 2 and left.max() > i,
                              len(joined) == 1 and joined.item(0) > i))
    return calls, moves


def _generator_state(rng):
    """The bit generator's state with its arrays as lists, for comparing."""
    def plain(v):
        if isinstance(v, dict):
            return {key: plain(x) for key, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v
    return plain(rng.bit_generator.state)


def _record_reassigns(monkeypatch):
    """Record each sample the pass commits through ``gibbs_reassign``."""
    committed = []

    def recording(state, loglik_row, col_order, i, u, sizes):
        committed.append(i)
        return gibbs_reassign(state, loglik_row, col_order, i, u, sizes)

    monkeypatch.setattr(clusters, "gibbs_reassign", recording)
    return committed


def _reassign_case(seed):
    """A random partition of 1-24 samples into K = 1..5 clusters, and log
    likelihoods that favour each sample's own cluster by a random margin, so
    that passes range from every row staying to rows moving often."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25))
    k = int(rng.integers(1, min(n, 5) + 1))
    labels = rng.permutation(np.concatenate((np.arange(k), rng.integers(0, k, n - k))))
    loglik = float(rng.choice([0.1, 1.0, 5.0])) * rng.standard_normal((n, k)) - 50.0
    loglik[np.arange(n), labels] += rng.choice([0.0, 2.0, 6.0, 20.0], size=n)
    return labels, loglik


def test_reassignment_pass_matches_per_sample_moves(monkeypatch):
    """The reassignment pass, which draws a one-cluster pass's uniforms at
    once, leaves the labels, counts, ids and generator state where
    ``gibbs_reassign`` of every non-singleton leaves them, on each bit
    generator, through moves that change which later rows draw."""
    seen = dict.fromkeys(
        ("K = 1", "every row stays, K > 1", "mover at sample 0", "mover at sample n - 1",
         "one uniform fewer", "one uniform more"), 0)
    committed = _record_reassigns(monkeypatch)
    pass_calls = reference_calls = 0
    for bit_generator in BIT_GENERATORS:
        for seed in range(150):
            labels, loglik = _reassign_case(seed)
            state, ref = _reassign_state(labels), _reassign_state(labels)
            col_order = state.samples.cluster_ids()
            rng, ref_rng = (np.random.Generator(getattr(np.random, bit_generator)(seed))
                            for _ in range(2))
            committed.clear()
            clusters._reassignments(state, rng, loglik, col_order)
            calls, moves = _reference_reassignments(ref, ref_rng, loglik, col_order)

            assert state.samples.to_dict() == ref.samples.to_dict(), (bit_generator, seed)
            assert _generator_state(rng) == _generator_state(ref_rng), (bit_generator, seed)
            pass_calls += len(committed)
            reference_calls += calls
            n, k = loglik.shape
            if k == 1:
                assert committed == [], (bit_generator, seed)  # the one-cluster draw
                seen["K = 1"] += calls > 1
            seen["every row stays, K > 1"] += k > 1 and calls > 1 and not moves
            seen["mover at sample 0"] += any(i == 0 for i, _, _ in moves)
            seen["mover at sample n - 1"] += n > 1 and any(i == n - 1 for i, _, _ in moves)
            seen["one uniform fewer"] += any(fewer for _, fewer, _ in moves)
            seen["one uniform more"] += any(more for _, _, more in moves)
    assert all(seen.values()), seen
    assert pass_calls < reference_calls, (pass_calls, reference_calls)  # one-cluster passes


def test_reassignment_abort_after_rows_that_stayed():
    """A non-finite row after rows that stay aborts in ``gibbs_reassign``
    with the per-sample pass's message, leaving the state and the generator
    where that pass leaves them."""
    n, bad = 10, 6
    labels = np.arange(n) % 2
    loglik = np.zeros((n, 2))
    loglik[np.arange(n), labels] = 60.0
    loglik[bad, 1] = np.nan
    state, ref = _reassign_state(labels), _reassign_state(labels)
    col_order = state.samples.cluster_ids()
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(SamplerAbort) as pass_abort:
        clusters._reassignments(state, rng, loglik, col_order)
    with pytest.raises(SamplerAbort) as reference_abort:
        _reference_reassignments(ref, ref_rng, loglik, col_order)

    message = str(pass_abort.value)
    assert message.startswith(f"reassignment i={bad}: non-finite log weights [")
    assert message == str(reference_abort.value)
    assert state.samples.to_dict() == ref.samples.to_dict()
    assert _generator_state(rng) == _generator_state(ref_rng)


@pytest.mark.parametrize("value, prefix", [
    (np.nan, "non-finite log weights [nan]"),
    (np.inf, "non-finite log weights [inf]"),
    (-np.inf, "all log weights are -inf"),
], ids=["nan", "inf", "-inf"])
def test_reassignment_at_one_cluster_aborts_on_a_non_finite_row(value, prefix):
    """With one cluster no row can move, but a non-finite likelihood row
    still aborts with the per-sample pass's message, after the uniforms of
    the rows before it."""
    n, bad = 8, 4
    labels = np.zeros(n, dtype=int)
    loglik = np.full((n, 1), -3.0)
    loglik[bad, 0] = value
    state, ref = _reassign_state(labels), _reassign_state(labels)
    col_order = state.samples.cluster_ids()
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    with pytest.raises(SamplerAbort) as pass_abort:
        clusters._reassignments(state, rng, loglik, col_order)
    with pytest.raises(SamplerAbort) as reference_abort:
        _reference_reassignments(ref, ref_rng, loglik, col_order)

    message = str(pass_abort.value)
    assert message.startswith(f"reassignment i={bad}: {prefix}")
    assert message == str(reference_abort.value)
    assert state.samples.to_dict() == ref.samples.to_dict()
    assert _generator_state(rng) == _generator_state(ref_rng)


def test_step5_aborts_name_the_move():
    """Death, reassignment and inner-mean aborts name their move and the
    sample (or cluster) they were at."""
    p = 4
    y = np.random.default_rng(4).normal(0.0, 0.1, size=(5, p))
    state, data, hp = manual_state(y, sigma_sq=[0.01] * p, attr_prob=1e-3)
    cid = state.samples.move(3)  # sample 3 becomes a singleton
    state.cluster_means[cid] = ClusterMeanVector(p)
    data.y[3, 2] = np.inf  # past DataMatrix's check
    rng = np.random.default_rng(0)

    with pytest.raises(SamplerAbort, match=r"^death proposal i=3: all log weights are -inf$"):
        mh_death_move(state, 3, _pass(state, data, hp), rng.random(p + 1))
    with pytest.raises(SamplerAbort, match=r"^reassignment i=1: non-finite log weights \[nan"):
        gibbs_reassign(state, np.array([np.nan, 0.0]), state.samples.cluster_ids(), 1,
                       rng.random(), state.samples.sizes())
    with pytest.raises(SamplerAbort, match=rf"^inner mean update cid={cid}: all log weights are -inf$"):
        _inner_pass(state, data, hp, cid, rng)
