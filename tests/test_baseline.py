"""The baseline DP steps: their log weights against quadrature oracles, their
value draws against closed-form moments, and the block pass against a
per-attribute reference.

``_reference_run_step`` reseats one attribute at a time with a uniform of its
own, under the block pass's two rules (a kept slot is left untouched; an
emptied slot waits for the end of the pass), the sequential collapsed Gibbs
pass the block pass must reproduce bit for bit: same labels, counts, values
and ids, and the generator left at the same position, for every bit
generator numpy ships. An enumeration oracle checks the pass's stationary
partition law at p = 3.
"""

import copy
import math

import mpmath
import numpy as np
import pytest
from scipy.stats import multivariate_normal

from sparseclust import baseline
from sparseclust.baseline import (
    _MeanStep,
    _residual_col_means,
    _residual_sq_colsums,
    _run_step,
    _VarStep,
    step_baseline_means,
    step_baseline_vars,
)
from sparseclust.clusters import ClusterMeanVector
from sparseclust.densities import LOG_2PI, SamplerAbort
from sparseclust.diagnostics import batch_means_se
from sparseclust.model import DataMatrix, Hyperparams, ModelState

from conftest import build_partition, manual_state
from log_densities import crp_log_prob

mpmath.mp.dps = 40

SEEDS = range(30)
# default_rng's PCG64 first.
BIT_GENERATORS = ("PCG64", "MT19937", "Philox", "SFC64")
STEPS = {"mean": (_MeanStep, "mean_part"), "var": (_VarStep, "var_part")}
# The closed forms' log-gamma, elementwise: math's, as the package takes it.
lgamma = np.vectorize(math.lgamma, otypes=[float])


def _mean_new_logw(state, data, hp):
    """Each attribute's log weight of a new mean cluster, in closed form: log
    conc_mean plus the normal log density of rbar_j at base_mean with
    variance base_var + sigma_j^2 / n."""
    rbar = _residual_col_means(state, data)
    # sigma_j^2 / n, rounded as the reciprocal of the precision n / sigma_j^2.
    obs_var = 1.0 / (data.n / state.var_part.values_vector())
    pv, d = hp.base_var + obs_var, rbar - hp.base_mean
    return math.log(state.conc_mean) - 0.5 * (LOG_2PI + np.log(pv) + d * d / pv)


def _var_new_logw(state, data, hp):
    """Each attribute's log weight of a new variance cluster, in closed form:
    log conc_var plus the inverse-gamma marginal of its n residuals,
    a log b - lgamma(a) + lgamma(a + n/2) - (a + n/2) log(b + ssq_j / 2)."""
    half_ssq = 0.5 * _residual_sq_colsums(state, data)
    a, b, half_n = hp.var_shape, hp.var_rate, 0.5 * data.n
    return (math.log(state.conc_var) + a * math.log(b) - lgamma(a) + lgamma(a + half_n)
            - (a + half_n) * np.log(b + half_ssq))


NEW_LOGW = {"mean": _mean_new_logw, "var": _var_new_logw}


def _mean_logw(state, data, hp, j, counts, stats):
    """Attribute j's log weights of slots with these counts and (q + i w)
    statistics, then of a new cluster, in closed form: log c plus the
    normal log density of rbar_j at the slot's posterior mean with variance
    its posterior variance + sigma_j^2 / n."""
    rbar = _residual_col_means(state, data)[j]
    obs_var = 1.0 / (data.n / state.var_part.values_vector()[j])
    prec = 1.0 / hp.base_var + stats.imag
    pv, d = 1.0 / prec + obs_var, rbar - (hp.base_mean / hp.base_var + stats.real) / prec
    with np.errstate(divide="ignore"):
        slots = np.log(counts) - 0.5 * (LOG_2PI + np.log(pv) + d * d / pv)
    return np.append(slots, _mean_new_logw(state, data, hp)[j])


def _var_logw(state, data, hp, j, counts, stats):
    """Attribute j's log weights of slots with these counts and summed
    half squared residuals, then of a new cluster, in closed form: log c
    plus the inverse-gamma predictive of its n residuals, with posterior
    shape u = a + c n/2 and rate v = b + stat."""
    x = 0.5 * _residual_sq_colsums(state, data)[j]
    half_n = 0.5 * data.n
    u, v = hp.var_shape + counts * half_n, hp.var_rate + stats
    with np.errstate(divide="ignore"):
        slots = (np.log(counts) + u * np.log(v) - lgamma(u) + lgamma(u + half_n)
                 - (u + half_n) * np.log(v + x))
    return np.append(slots, _var_new_logw(state, data, hp)[j])


CLOSED_FORM_LOGW = {"mean": _mean_logw, "var": _var_logw}


def _slot_terms(step, counts, stats):
    """The (terms, slots) array of slots with these counts and statistics."""
    return np.array(step.slot_terms(counts, stats), dtype=float)


def _logits_without(step, part, j, new_logw):
    """Attribute j's log weights (live clusters in creation order, then a new
    cluster) with j taken out of its cluster: the clusters' from the step's
    own logit function in its row form, the new cluster's ``new_logw[j]``."""
    labels, k = part.labels, part.n_clusters()
    others = np.arange(len(labels)) != j
    counts = np.bincount(labels[others], minlength=k)
    stats = np.zeros(k, dtype=step.items.dtype)
    np.add.at(stats, labels[others], step.items[others])
    live = counts > 0
    terms = _slot_terms(step, counts[live], stats[live])
    (row,) = step.logits(slice(j, j + 1), terms[:, None])
    return np.append(row, new_logw[j])


def _draw_seat(logw, u, where):
    """The first slot whose running weight reaches u times the total, in the
    numpy arithmetic the pass scores a row with; a non-finite largest
    weight aborts."""
    m = np.maximum.reduce(logw)
    if not math.isfinite(m):
        raise SamplerAbort(f"{where}: non-finite log weights {logw}")
    prob = np.exp(logw - m)
    return min(int(np.add.accumulate(prob).searchsorted(u * np.add.reduce(prob))), len(prob) - 1)


def _reference_run_step(part, step, rng, where, new_logw, slots=None):
    """One attribute at a time, with a uniform of its own: it is weighed
    against every slot as it stands, with itself taken out of its own (a slot
    it was the last member of weighs log 0 and holds statistic 0), and a new
    cluster, at ``new_logw[j]``. A kept slot is left untouched; a move takes
    the attribute out of its slot and into the drawn one. Empty slots are
    dropped once, at the end, and every value is drawn. Returns, per
    attribute, (it was alone in its slot, it moved, it opened a new
    cluster); with a list ``slots``, appends to it each attribute's (counts,
    statistics) of the slots it was weighed against."""
    ids = part.cluster_ids()
    labels = part.labels.copy()
    items = step.items.tolist()
    p = len(labels)
    k = len(ids)
    cnt = np.bincount(labels, minlength=k + p)
    stat = np.zeros(k + p, dtype=step.items.dtype)
    np.add.at(stat, labels, step.items)
    events = []
    for j in range(p):
        s = labels[j]
        out_cnt, out_stat = cnt[:k].copy(), stat[:k].copy()
        out_cnt[s] -= 1
        out_stat[s] = out_stat[s] - items[j] if out_cnt[s] else 0
        if slots is not None:
            slots.append((out_cnt, out_stat))
        logw = np.append(step.logits(j, _slot_terms(step, out_cnt, out_stat)), new_logw[j])
        t = _draw_seat(logw, rng.random(), f"{where} j={j}")
        events.append((bool(cnt[s] == 1), t != s, t == k))
        if t != s:
            cnt[:k], stat[:k] = out_cnt, out_stat
            k += t == k
            cnt[t] += 1
            stat[t] += items[j]
            labels[j] = t
    ids += [None] * (k - len(ids))
    live = cnt[:k] > 0
    labels = (np.cumsum(live) - 1)[labels]
    counts = cnt[:k][live]
    part.set_slots([cid for cid, keep in zip(ids, live) if keep], labels, counts,
                   step.values(labels, counts, rng))
    return events


def _record_weights(step):
    """Make ``step`` keep, per row, the log weights it scored the row with
    last: those of the pass's draw for the row, since a block's rows after
    the first that moves are scored again."""
    weights = {}
    logits = step.logits

    def recording(rows, terms):
        logw = logits(rows, terms)
        if isinstance(rows, int):
            weights[rows] = logw
        else:
            weights.update(zip(range(rows.start, rows.stop), logw))
        return logw

    step.logits = recording
    return weights


def _record_blocks(step):
    """Make ``step`` log each block it scores as (first row, rows, slots)."""
    blocks = []
    logits = step.logits

    def recording(rows, terms):
        first, n = (rows, 1) if isinstance(rows, int) else (rows.start, rows.stop - rows.start)
        blocks.append((first, n, terms[0].shape[-1] - 1))  # the last column is a new cluster
        return logits(rows, terms)

    step.logits = recording
    return blocks


def _mixed_state(seed):
    """A state whose baseline partitions mix attributes that stay, attributes
    that move, outliers that open clusters and singletons."""
    rng = np.random.default_rng(seed)
    n, p = 5, 40
    level = rng.integers(0, 3, size=p)
    loc, scale = level * 0.7, np.array([0.3, 0.6, 1.2])[level]
    outlier = rng.random(p) < 0.06
    loc[outlier] += 6.0
    scale[outlier] *= 8.0
    y = rng.normal(loc, scale, size=(n, p))

    def groups(k):
        labels = rng.integers(0, k, size=p)
        labels[rng.random(p) < 0.1] = k  # singletons
        return ([list(np.flatnonzero(labels == g)) for g in range(k) if (labels == g).any()]
                + [[j] for j in np.flatnonzero(labels == k)])

    mean_groups, var_groups = groups(3), groups(2)
    state = ModelState(
        mean_part=build_partition(mean_groups, rng.normal(0.0, 1.0, len(mean_groups)).tolist()),
        var_part=build_partition(var_groups, rng.uniform(0.3, 2.0, len(var_groups)).tolist()),
        samples=build_partition([list(range(n))]),
        cluster_means={0: ClusterMeanVector(p)},
        attr_prob=np.full(p, 0.5),
        slab_var=1.0,
        conc_samples=1.0,
        conc_mean=rng.uniform(0.3, 3.0),
        conc_var=rng.uniform(0.3, 3.0),
        conc_inner=1.0,
    )
    return state, DataMatrix(y), Hyperparams(base_mean=0.0, base_var=1.0)


def _mean_logits_without(state, data, hp, j):
    return _logits_without(_MeanStep(state, data, hp), state.mean_part, j,
                           _mean_new_logw(state, data, hp))


def _var_logits_without(state, data, hp, j):
    return _logits_without(_VarStep(state, data, hp), state.var_part, j,
                           _var_new_logw(state, data, hp))


def _slot_view_values(step, part, rng):
    return step.values(part.labels, part.counts, rng)


def test_single_attribute_always_own_cluster():
    y = np.array([[0.4], [1.2], [-0.3]])
    state, data, hp = manual_state(y, sigma_sq=[0.5])
    rng = np.random.default_rng(0)
    step_baseline_means(state, data, hp, rng)
    assert state.mean_part.n_clusters() == 1
    step_baseline_vars(state, data, hp, rng)
    assert state.var_part.n_clusters() == 1


def test_mean_assignment_weights_normalize(tiny_state):
    state, data, hp = tiny_state
    logw = _mean_logits_without(state, data, hp, 1)
    probs = np.exp(logw - logw.max())
    probs /= probs.sum()
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_mean_assignment_matches_quadrature_posterior():
    """Two attributes: join-vs-new odds against the exact 2-term posterior
    computed by numerical integration of the full column likelihood."""
    rng = np.random.default_rng(8)
    n = 3
    y = rng.normal(0.3, 0.6, size=(n, 2))
    sig = [0.4, 0.7]
    hp = Hyperparams(base_mean=0.1, base_var=1.3)
    state, data, hp = manual_state(y, sigma_sq=sig, hp=hp)
    state.conc_mean = 0.8

    logw = _mean_logits_without(state, data, hp, 1)
    assert len(logw) == 2  # attribute 0's cluster is the only survivor
    my_log_odds = logw[0] - logw[1]

    def col_lik(col, mu, s2):
        out = mpmath.mpf(1)
        for v in col:
            out *= mpmath.exp(-(mpmath.mpf(v) - mu) ** 2 / (2 * s2)) / mpmath.sqrt(
                2 * mpmath.pi * s2
            )
        return out

    prior = lambda mu: mpmath.exp(
        -(mu - hp.base_mean) ** 2 / (2 * hp.base_var)
    ) / mpmath.sqrt(2 * mpmath.pi * hp.base_var)
    pts = [-mpmath.inf, -2, 0, 2, mpmath.inf]
    joint_join = mpmath.quad(
        lambda mu: col_lik(y[:, 0], mu, sig[0]) * col_lik(y[:, 1], mu, sig[1]) * prior(mu), pts
    )
    marg_0 = mpmath.quad(lambda mu: col_lik(y[:, 0], mu, sig[0]) * prior(mu), pts)
    marg_1 = mpmath.quad(lambda mu: col_lik(y[:, 1], mu, sig[1]) * prior(mu), pts)
    # join weight: 1 * p(col1 | col0 same cluster); new: conc * p(col1 | fresh draw)
    oracle_log_odds = float(
        mpmath.log(joint_join / marg_0) - mpmath.log(state.conc_mean * marg_1)
    )
    assert my_log_odds == pytest.approx(oracle_log_odds, abs=1e-10)


def test_identical_columns_cocluster_above_prior():
    y = np.tile(np.array([[0.5], [0.9], [0.2]]), (1, 2))
    state, data, hp = manual_state(y, sigma_sq=[2.0, 2.0])
    state.conc_mean = 1.0
    logw = _mean_logits_without(state, data, hp, 1)
    p_join = 1.0 / (1.0 + math.exp(logw[1] - logw[0]))
    assert p_join > 1.0 / (1.0 + state.conc_mean)


def test_mean_value_resample_moments():
    # One cluster of one attribute, n=2: posterior precision and mean by hand.
    y = np.array([[1.0], [3.0]])
    sig = [0.5]
    hp = Hyperparams(base_mean=0.0, base_var=2.0)
    state, data, hp = manual_state(y, sigma_sq=sig, hp=hp)
    v = 1.0 / hp.base_var + 2.0 / sig[0]
    u = (hp.base_mean / hp.base_var + y[:, 0].sum() / sig[0]) / v

    rng = np.random.default_rng(3)
    step = _MeanStep(state, data, hp)
    draws = np.empty(100_000)
    for t in range(len(draws)):
        (draws[t],) = _slot_view_values(step, state.mean_part, rng)
    se_mean = draws.std() / math.sqrt(len(draws))
    assert abs(draws.mean() - u) < 4 * se_mean
    # variance check: SE(var) ~ var * sqrt(2/(n-1))
    se_var = draws.var() * math.sqrt(2.0 / (len(draws) - 1))
    assert abs(draws.var() - 1.0 / v) < 4 * se_var


def test_var_assignment_matches_quadrature_posterior():
    rng = np.random.default_rng(21)
    n = 3
    y = rng.normal(0.0, 0.8, size=(n, 2))
    hp = Hyperparams(base_mean=0.0, base_var=1.0, var_shape=1.2, var_rate=0.7)
    state, data, hp = manual_state(y, sigma_sq=[1.0, 1.0], hp=hp)
    state.conc_var = 1.4

    logw = _var_logits_without(state, data, hp, 1)
    assert len(logw) == 2
    my_log_odds = logw[0] - logw[1]

    # z equals y here (baseline means are zero, shifts are zero)
    def col_lik(col, s2):
        out = mpmath.mpf(1)
        for v in col:
            out *= mpmath.exp(-mpmath.mpf(v) ** 2 / (2 * s2)) / mpmath.sqrt(2 * mpmath.pi * s2)
        return out

    def ig_prior(s2):
        a, b = hp.var_shape, hp.var_rate
        return b**a / mpmath.gamma(a) * s2 ** (-a - 1) * mpmath.exp(-b / s2)

    pts = [mpmath.mpf("1e-6"), 0.1, 0.5, 2, 10, 100, mpmath.inf]
    joint = mpmath.quad(lambda s2: col_lik(y[:, 0], s2) * col_lik(y[:, 1], s2) * ig_prior(s2), pts)
    m0 = mpmath.quad(lambda s2: col_lik(y[:, 0], s2) * ig_prior(s2), pts)
    m1 = mpmath.quad(lambda s2: col_lik(y[:, 1], s2) * ig_prior(s2), pts)
    oracle_log_odds = float(mpmath.log(joint / m0) - mpmath.log(state.conc_var * m1))
    assert my_log_odds == pytest.approx(oracle_log_odds, abs=1e-10)


def test_var_assignment_scaling_consistency():
    """Scaling the residuals rescales the weights exactly as the closed form
    predicts (re-evaluated directly at both scales)."""
    rng = np.random.default_rng(4)
    y = rng.normal(0.0, 1.0, size=(4, 2))
    for scale in (1.0, 3.0):
        state, data, hp = manual_state(y * scale, sigma_sq=[1.0, 1.0])
        logw = _var_logits_without(state, data, hp, 1)
        ssq = ((y * scale) ** 2).sum(axis=0)
        n = 4
        u = hp.var_shape + n / 2.0
        v = hp.var_rate + ssq[0] / 2.0
        want_join = (
            math.log(1.0) + u * math.log(v) - math.lgamma(u)
            + math.lgamma(u + n / 2.0) - (u + n / 2.0) * math.log(v + ssq[1] / 2.0)
        )
        want_new = (
            math.log(state.conc_var)
            + hp.var_shape * math.log(hp.var_rate) - math.lgamma(hp.var_shape)
            + math.lgamma(hp.var_shape + n / 2.0)
            - (hp.var_shape + n / 2.0) * math.log(hp.var_rate + ssq[1] / 2.0)
        )
        assert logw[0] == pytest.approx(want_join, rel=1e-12)
        assert logw[1] == pytest.approx(want_new, rel=1e-12)


def test_var_value_resample_trivial_params_and_moments():
    # n=6 keeps the posterior variance finite for the 4-SE moment check.
    y = np.ones((6, 1))
    state, data, hp = manual_state(y, sigma_sq=[1.0])
    shape = hp.var_shape + 6 / 2.0  # 3.5
    rate = hp.var_rate + 6 / 2.0  # 3.5

    rng = np.random.default_rng(9)
    step = _VarStep(state, data, hp)
    draws = np.empty(100_000)
    for t in range(len(draws)):
        (draws[t],) = _slot_view_values(step, state.var_part, rng)
    want_mean = rate / (shape - 1.0)
    se = draws.std() / math.sqrt(len(draws))
    assert abs(draws.mean() - want_mean) < 4 * se


def test_uninformative_likelihood_reduces_to_crp_prior():
    """With enormous noise variance the assignment kernel samples the CRP
    prior; the average cluster count must match the analytic expectation."""
    rng = np.random.default_rng(14)
    p, n, conc = 40, 2, 5.0
    y = rng.normal(size=(n, p))
    state, data, hp = manual_state(y, sigma_sq=[1e12] * p)
    state.conc_mean = conc

    ks = []
    for _ in range(3000):
        step_baseline_means(state, data, hp, rng)
        ks.append(state.mean_part.n_clusters())
    expect = sum(conc / (conc + i) for i in range(p))
    got = np.mean(ks[100:])
    assert abs(got - expect) / expect < 0.05


# The five set partitions of three attributes, as canonical labels.
PARTITIONS_OF_3 = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2))
# Fixed before the first run: the chain seed, the passes per step and the
# bound on each partition's batch-means z score.
ORACLE_SEED = 7
ORACLE_DRAWS = 6000
ORACLE_BOUND = 4.5


def _enumerated_posterior(log_marginal, conc):
    """Probability of each partition of PARTITIONS_OF_3: CRP(z; conc) times
    the product of its clusters' marginal likelihoods, normalised."""
    logw = []
    for z in PARTITIONS_OF_3:
        groups = [[j for j, g in enumerate(z) if g == c] for c in range(max(z) + 1)]
        logw.append(crp_log_prob(map(len, groups), conc) + sum(map(log_marginal, groups)))
    w = np.exp(np.array(logw) - max(logw))
    return w / w.sum()


def test_pass_matches_enumerated_posterior():
    """At p = 3 the pass, run as a chain from a fixed state, visits each of
    the 5 partitions as often as the exact posterior says: the mean pass
    with sigma fixed (attribute j's n values are N(u, sigma_j^2), u ~
    N(base_mean, base_var)) and the variance pass with the means fixed
    (residuals N(0, s), s ~ InvGamma(var_shape, var_rate))."""
    y = np.array([[0.3, 0.5, -0.4], [0.9, 0.7, 0.2], [0.1, 0.6, -0.9], [0.5, 0.2, -0.1]])
    n = len(y)
    sigma_sq, mu_base = np.array([0.5, 0.8, 0.6]), np.array([0.4, 0.4, -0.3])
    hp = Hyperparams(base_mean=0.2, base_var=1.5, var_shape=2.0, var_rate=1.0)

    def mean_marginal(c):
        obs = y[:, c].T.ravel()  # attribute by attribute
        cov = np.diag(np.repeat(sigma_sq[c], n)) + hp.base_var
        return multivariate_normal(np.full(len(obs), hp.base_mean), cov).logpdf(obs)

    def var_marginal(c):
        z = y[:, c] - mu_base[c]
        half, a, b = 0.5 * z.size, hp.var_shape, hp.var_rate
        return (-half * math.log(2 * math.pi) + a * math.log(b) - math.lgamma(a)
                + math.lgamma(a + half) - (a + half) * math.log(b + 0.5 * (z * z).sum()))

    rng = np.random.default_rng(ORACLE_SEED)
    for step, attr, log_marginal in (
        (step_baseline_means, "mean_part", mean_marginal),
        (step_baseline_vars, "var_part", var_marginal),
    ):
        # Singleton baselines: sigma_sq for the mean pass, mu_base for the other.
        state, data, hp = manual_state(y, sigma_sq, mean_values=mu_base, hp=hp)
        state.conc_mean, state.conc_var = 0.7, 1.3
        want = _enumerated_posterior(
            log_marginal, state.conc_mean if attr == "mean_part" else state.conc_var)
        visits = np.zeros((ORACLE_DRAWS, len(PARTITIONS_OF_3)))
        for t in range(ORACLE_DRAWS):
            step(state, data, hp, rng)
            getattr(state, attr).validate()
            labels = tuple(getattr(state, attr).canonical()[0].tolist())
            visits[t, PARTITIONS_OF_3.index(labels)] = 1.0
        z = [(visits[:, i].mean() - want[i]) / batch_means_se(visits[:, i])
             for i in range(len(want))]
        assert max(map(abs, z)) < ORACLE_BOUND, (attr, want, visits.mean(0), z)


# (block cells, the run between moves, mean or current, at which blocks
# span several rows) per seed: the default, a cap that short blocks reach,
# and blocks after short runs.
BLOCK_SETTINGS = ((baseline._BLOCK_CELLS, baseline._MIN_RUN), (24, 1), (4096, 2))


@pytest.mark.parametrize("which", sorted(STEPS))
def test_block_pass_matches_reference(which, monkeypatch):
    """The block pass reproduces the per-attribute pass bitwise, on each bit
    generator, through the cases where a block ends at a row that moves."""
    cls, attr = STEPS[which]
    seen = dict.fromkeys(
        ("singleton mid-pass", "move on first row", "move on last row",
         "new cluster inside a block", "singleton inside a multi-row block",
         "block at the cap"), 0)
    for bit_generator in BIT_GENERATORS:
        for seed in SEEDS:
            cells, min_run = BLOCK_SETTINGS[seed % len(BLOCK_SETTINGS)]
            monkeypatch.setattr(baseline, "_BLOCK_CELLS", cells)
            monkeypatch.setattr(baseline, "_MIN_RUN", min_run)
            state, data, hp = _mixed_state(seed)
            part, ref = (copy.deepcopy(getattr(state, attr)) for _ in range(2))
            rng, ref_rng = (np.random.Generator(getattr(np.random, bit_generator)(seed))
                            for _ in range(2))
            step = cls(state, data, hp)
            blocks = _record_blocks(step)
            _run_step(part, step, rng, which)
            events = _reference_run_step(ref, cls(state, data, hp), ref_rng, which,
                                         NEW_LOGW[which](state, data, hp))

            assert part.to_dict() == ref.to_dict(), (bit_generator, seed)
            # Equal next draws: the two generators stand at the same position.
            assert rng.random(4).tolist() == ref_rng.random(4).tolist(), (bit_generator, seed)

            seen["singleton mid-pass"] += any(single for single, _, _ in events[1:])
            for first, n, k in blocks:
                if n == 1:
                    continue
                moved = [m for _, m, _ in events[first:first + n]]
                r = moved.index(True) if any(moved) else None  # the row committed last
                seen["move on first row"] += r == 0
                seen["move on last row"] += r == n - 1
                seen["new cluster inside a block"] += bool(r) and events[first + r][2]
                seen["singleton inside a multi-row block"] += bool(r) and events[first + r][0]
                seen["block at the cap"] += n == cells // (k + 1)
    assert all(seen.values()), seen


@pytest.mark.parametrize("cells", [baseline._BLOCK_CELLS, 24])
@pytest.mark.parametrize("which", sorted(STEPS))
def test_blocks_open_the_pass_and_follow_the_runs(which, cells, monkeypatch):
    """The pass opens with a block as wide as the cell cap allows. After a
    move, a block spans the longer of the mean run of rows between moves
    and the run since the last move, and rows are scored alone while both
    are under ``_MIN_RUN``. So a pass in which no attribute moves scores
    ceil(p / width) blocks and no row alone; a pass whose first two rows
    must move scores rows alone until ``_MIN_RUN`` rows have stayed; and a
    pass of singletons that each open a new cluster, where every row moves,
    scores at most one block of several rows. Each reproduces the
    per-attribute pass bitwise."""
    monkeypatch.setattr(baseline, "_BLOCK_CELLS", cells)
    cls, attr = STEPS[which]
    p = 40
    column = np.random.default_rng(8).normal(0.0, 0.1, size=30)
    # Even attributes near 0 and odd ones near 5: two clusters no row leaves.
    y = column[:, None] + np.tile([0.0, 5.0], p // 2)
    settled = [list(range(0, p, 2)), list(range(1, p, 2))]
    front = [[0], [1], list(range(2, p, 2)), list(range(3, p, 2))]
    singletons = [[j] for j in range(p)]
    for groups, conc in ((settled, 1e-6), (front, 1e-6), (singletons, 1e12)):
        state, data, hp = manual_state(y, sigma_sq=[0.01] * p, concs=conc)
        setattr(state, attr, build_partition(groups, [0.01] * len(groups)))
        part, ref = (copy.deepcopy(getattr(state, attr)) for _ in range(2))
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        step = cls(state, data, hp)
        logits, calls = step.logits, []
        step.logits = lambda rows, terms: calls.append(rows) or logits(rows, terms)
        _run_step(part, step, rng, which)
        events = _reference_run_step(ref, cls(state, data, hp), ref_rng, which,
                                     NEW_LOGW[which](state, data, hp))

        assert part.to_dict() == ref.to_dict()
        assert rng.random(4).tolist() == ref_rng.random(4).tolist()
        moved = [j for j, (_, move, _) in enumerate(events) if move]
        alone = [rows for rows in calls if type(rows) is int]
        blocks = [rows.stop - rows.start for rows in calls if type(rows) is slice]
        if groups is settled:
            assert moved == []
            width = min(p, cells // (len(groups) + 1))
            assert (len(blocks), alone) == (-(-p // width), []), calls
        elif groups is front:
            assert moved == [0, 1]
            assert alone == list(range(1, 2 + baseline._MIN_RUN)), calls
        else:
            assert moved == list(range(p))
            assert sum(n > 1 for n in blocks) <= 1, calls


@pytest.mark.parametrize("which", sorted(STEPS))
def test_row_weights_match_closed_form(which, monkeypatch):
    """The log weights the pass draws each row from equal bitwise the closed
    form over the slots the per-attribute pass weighs the row against: the
    table's slot columns and its new-cluster column, at a base measure
    away from zero, through one-row and multi-row blocks."""
    cls, attr = STEPS[which]
    for seed in range(6):
        cells, min_run = BLOCK_SETTINGS[seed % len(BLOCK_SETTINGS)]
        monkeypatch.setattr(baseline, "_BLOCK_CELLS", cells)
        monkeypatch.setattr(baseline, "_MIN_RUN", min_run)
        state, data, _ = _mixed_state(seed)
        hp = Hyperparams(base_mean=0.4, base_var=1.7, var_shape=1.3, var_rate=0.8)
        part, ref = (copy.deepcopy(getattr(state, attr)) for _ in range(2))
        step = cls(state, data, hp)
        weights = _record_weights(step)
        _run_step(part, step, np.random.default_rng(seed), which)
        slots = []
        _reference_run_step(ref, cls(state, data, hp), np.random.default_rng(seed), which,
                            NEW_LOGW[which](state, data, hp), slots)

        assert part.to_dict() == ref.to_dict(), seed
        for j, (counts, stats) in enumerate(slots):
            want = CLOSED_FORM_LOGW[which](state, data, hp, j, counts, stats)
            assert weights[j].tolist() == want.tolist(), (seed, j)


# Statistics the slot terms are checked on: the mean step's q + i w (a
# precision-weighted sum and a precision) and the variance step's half sums
# of squared residuals, from an empty slot's int 0 up to large sums. The
# variance grid is dense enough that numpy's log and math's differ in the
# last bit at some of its points on x86-64 with numpy's AVX-512 kernels.
SLOT_STATS = {
    "mean": [0] + [complex(q, w) for q in np.linspace(-40.0, 2.5e3, 12).tolist()
                   for w in (0.0, 0.05, 3.0, 7.5e4)],
    "var": [0, 0.0] + np.geomspace(1e-9, 1e6, 2000).tolist(),
}


@pytest.mark.parametrize("which", sorted(STEPS))
def test_one_slot_terms_match_array_terms(which):
    """A slot's terms from an int count and one statistic, the form the
    one-row path writes a table column with, equal bit for bit the matching
    column of the array form that builds the table at pass start and the
    blocks' columns, for every count 0..p."""
    cls, _ = STEPS[which]
    state, data, _ = _mixed_state(0)
    hp = Hyperparams(base_mean=0.4, base_var=1.7, var_shape=1.3, var_rate=0.8)
    step = cls(state, data, hp)
    stats = SLOT_STATS[which]
    counts = np.repeat(np.arange(data.p + 1), len(stats))
    want = _slot_terms(step, counts, np.tile(np.array(stats, dtype=step.items.dtype), data.p + 1))
    got = [step.slot_terms(c, stat) for c in range(data.p + 1) for stat in stats]
    assert [[float(a).hex() for a in terms] for terms in got] == [
        [a.hex() for a in terms] for terms in want.T.tolist()]


def test_abort_names_the_attribute_inside_a_block():
    """A non-finite statistic inside a block aborts the pass at its attribute,
    with the message of the per-attribute pass, after all p uniforms."""
    bad = 10
    rng = np.random.default_rng(5)
    column = rng.normal(0.0, 0.1, size=6)
    y = np.tile(column[:, None], (1, 20))
    others = [j for j in range(20) if j not in (bad, bad + 1)]
    state, data, hp = manual_state(y, sigma_sq=[0.01] * 20, mean_groups=[others, [bad, bad + 1]])
    data.y[0, bad] = np.inf  # past DataMatrix's check
    step = _MeanStep(state, data, hp)
    blocks = _record_blocks(step)
    gen, ref_gen = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(SamplerAbort) as block_abort:
        _run_step(copy.deepcopy(state.mean_part), step, gen, "baseline-mean assignment")
    # The per-attribute pass subtracts numpy scalars, which warn on inf - inf.
    with np.errstate(invalid="ignore"), pytest.raises(SamplerAbort) as reference_abort:
        _reference_run_step(copy.deepcopy(state.mean_part), _MeanStep(state, data, hp),
                            ref_gen, "baseline-mean assignment", _mean_new_logw(state, data, hp))

    message = str(block_abort.value)
    assert message.startswith(f"baseline-mean assignment j={bad}: non-finite log weights")
    assert message == str(reference_abort.value)
    first, n, _ = blocks[-1]
    assert first < bad < first + n - 1, blocks
    fresh = np.random.default_rng(3)
    fresh.random(20)
    assert gen.random(4).tolist() == fresh.random(4).tolist()


@pytest.mark.parametrize("which, bad", [("mean", 0), ("mean", 10), ("var", 0)])
def test_abort_names_an_attribute_scored_alone(which, bad):
    """A non-finite statistic on an attribute scored alone aborts the pass at
    its attribute with the message of the per-attribute pass, after all p
    uniforms. A pass opens with a block, so attribute 0 is alone in a pass
    of one attribute. Attribute 10 follows singletons at rows 0 and 9 that
    must move, which keep the runs between moves under ``_MIN_RUN``. A
    variance slot holding an infinite statistic gives every earlier row NaN
    weights, so the variance step is checked at row 0 only."""
    cls, attr = STEPS[which]
    where = f"baseline-{which} assignment"
    p = 20 if bad else 1
    rng = np.random.default_rng(5)
    column = rng.normal(0.0, 0.1, size=6)
    y = np.tile(column[:, None], (1, p))
    alone = [[bad]] + ([[bad - 1], [0]] if bad else [])
    others = [j for j in range(p) if [j] not in alone]
    groups = ([others] if others else []) + alone
    state, data, hp = manual_state(y, sigma_sq=[0.01] * p)
    setattr(state, attr, build_partition(groups, [0.01] * len(groups)))
    data.y[0, bad] = np.inf  # past DataMatrix's check
    step = cls(state, data, hp)
    blocks = _record_blocks(step)
    gen, ref_gen = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(SamplerAbort) as row_abort:
        _run_step(copy.deepcopy(getattr(state, attr)), step, gen, where)
    # The per-attribute pass subtracts numpy scalars, which warn on inf - inf.
    with np.errstate(all="ignore"), pytest.raises(SamplerAbort) as reference_abort:
        _reference_run_step(copy.deepcopy(getattr(state, attr)), cls(state, data, hp), ref_gen,
                            where, NEW_LOGW[which](state, data, hp))

    message = str(row_abort.value)
    assert message.startswith(f"{where} j={bad}: non-finite log weights")
    assert message == str(reference_abort.value)
    assert blocks[-1][:2] == (bad, 1), blocks
    fresh = np.random.default_rng(3)
    fresh.random(p)
    assert gen.random(4).tolist() == fresh.random(4).tolist()
