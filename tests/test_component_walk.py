"""The component walk against a scalar reference.

``_reference_walk`` seats one component at a time with one uniform per
component, the algorithm the walk's spike-run blocks must reproduce. The
production walk must draw the same seats and values, leave the generator in
the same position, agree on log Q and log Q0 to rounding, and replay its
own proposals bitwise.
"""

import math

import numpy as np
import pytest

from sparseclust.chain import sweep
from sparseclust.clusters import (
    ClusterMeanVector,
    _pick_with_lse,
    _slab_coef,
    eval_log_q,
    gibbs_update_cluster_mean,
    sequential_sample_mean,
)
from sparseclust.densities import LOG_2PI
from sparseclust.forward import draw_data
from sparseclust.partition import DETACHED, SPIKE
from sparseclust.sparsity import draw_pi_entry

from conftest import make_state

REL = 1e-12


def _ln_norm(x, mean, var):
    d = x - mean
    return -0.5 * (LOG_2PI + math.log(var) + d * d / var)


def _reference_walk(inner, x, n_count, sigma_sq, state, hp, rng=None):
    """Component-by-component walk: detach, weigh SPIKE / each live inner
    cluster / a new cluster, draw (or read) the seat; then draw (or read)
    every inner value. Returns (log_q, log_q0)."""
    replay = rng is None
    x = [float(v) for v in x]
    v_obs = [float(s) / n_count for s in sigma_sq]
    precs = [n_count / float(s) for s in sigma_sq]
    s_vec = [_slab_coef(hp) * float(a) for a in state.attr_prob]
    slab_var, conc = state.slab_var, state.conc_inner
    cids = [] if replay else inner.cluster_ids()
    counts = [inner.size_of(c) for c in cids]
    sprec = [0.0] * len(cids)
    sstat = [0.0] * len(cids)
    for j in range(len(x)):
        a = inner.cluster_of(j)
        if a >= 0 and not replay:
            t = cids.index(a)
            sprec[t] += precs[j]
            sstat[t] += precs[j] * x[j]
    log_q = log_q0 = 0.0
    for j in range(len(x)):
        a = inner.cluster_of(j)
        if not replay and a != DETACHED:
            inner.detach(j)
            if a != SPIKE:
                t = cids.index(a)
                if counts[t] == 1:
                    for lst in (cids, counts, sprec, sstat):
                        del lst[t]
                else:
                    counts[t] -= 1
                    sprec[t] -= precs[j]
                    sstat[t] -= precs[j] * x[j]
        log_denom = math.log(conc + sum(counts))
        log_s = math.log(s_vec[j]) if s_vec[j] > 0.0 else -math.inf
        log_spike = math.log1p(-s_vec[j]) if s_vec[j] < 1.0 else -math.inf
        logw = [log_spike + _ln_norm(x[j], 0.0, v_obs[j])]
        for t in range(len(counts)):
            v_post = 1.0 / slab_var + sprec[t]
            logw.append(log_s + math.log(counts[t]) - log_denom
                        + _ln_norm(x[j], sstat[t] / v_post, 1.0 / v_post + v_obs[j]))
        logw.append(log_s + math.log(conc) - log_denom
                    + _ln_norm(x[j], 0.0, slab_var + v_obs[j]))
        k = len(counts)
        choice, lse = _pick_with_lse(logw, rng)
        if replay:
            choice = 0 if a == SPIKE else 1 + (cids.index(a) if a in cids else k)
        log_q += logw[choice] - lse
        if choice == 0:
            log_q0 += log_spike
            if not replay:
                inner.attach_spike(j)
            continue
        if choice <= k:
            t = choice - 1
            log_q0 += log_s + math.log(counts[t]) - log_denom
            counts[t] += 1
            sprec[t] += precs[j]
            sstat[t] += precs[j] * x[j]
            if not replay:
                inner.attach(j, cids[t])
        else:
            log_q0 += log_s + math.log(conc) - log_denom
            cids.append(a if replay else inner.attach_new(j, 0.0))
            counts.append(1)
            sprec.append(precs[j])
            sstat.append(precs[j] * x[j])
    for c in cids:
        prec = 1.0 / slab_var
        stat = 0.0
        for j in range(len(x)):
            if inner.cluster_of(j) == c:
                prec += precs[j]
                stat += precs[j] * x[j]
        var = 1.0 / prec
        slot = inner.cluster_ids().index(c)
        if replay:
            val = float(inner.values[slot])
        else:
            val = stat / prec + math.sqrt(var) * rng.standard_normal()
            inner.values[slot] = val
        log_q += _ln_norm(val, stat / prec, var)
        log_q0 += _ln_norm(val, 0.0, slab_var)
    return log_q, log_q0


MID = 60


def _case(kind, seed):
    """(state, data, hp, cid, x) for one walk input.

    spike: 300 components that favour SPIKE; mid: 120 such components but
    component 60 strongly favours the slab; dense: 40 slab-favouring
    components; p1: a single component. The inner Gibbs pass starts all
    SPIKE, except in mid, where component 10 starts alone in an inner cluster
    that empties when it leaves, so a spike run starts inside the pass, and
    in dense and p1 at odd seeds, which start with live inner clusters.
    """
    p = {"spike": 300, "mid": 120, "dense": 40, "p1": 1}[kind]
    state, data, hp = make_state(n=3, p=p, seed=seed)
    rng = np.random.default_rng(10_000 + seed)
    cid = state.samples.cluster_ids()[0]
    mu_base = state.mean_part.values_vector()
    if kind == "dense":
        state.attr_prob[:] = 0.9
        x = rng.normal(0.0, 3.0, size=p)
    elif kind == "p1":
        state.attr_prob[:] = 0.5
        x = rng.normal(0.0, 1.5, size=p)
    else:
        state.attr_prob[:] = 1e-3
        x = rng.normal(0.0, 0.3, size=p)
    start = ClusterMeanVector.all_spike(p)
    if kind == "mid":
        state.attr_prob[MID] = 0.9
        x[MID] = 6.0
        start.inner.detach(10)
        start.inner.attach_new(10, 5.0)
    elif kind in ("dense", "p1") and seed % 2:
        start = ClusterMeanVector(p)
        for j in range(p):
            if j % 3 == 2:
                start.inner.attach_spike(j)
            elif j < 2:
                start.inner.attach_new(j, float(x[j]))
            else:
                start.inner.attach(j, start.inner.cluster_of(j % 3))
    data.y[state.samples.members()[cid]] = x + mu_base  # the members' mean residual is x
    state.cluster_means[cid] = start
    return state, data, hp, cid, x


KINDS = ("spike", "mid", "dense", "p1")
SEEDS = range(30)


@pytest.mark.parametrize("kind", KINDS)
def test_proposal_matches_reference_walk(kind):
    seen_slab = seen_spike_only = 0
    for seed in SEEDS:
        state, _data, hp, _cid, x = _case(kind, seed)
        sigma_sq = state.var_part.values_vector()
        n_count = 1 + seed % 3
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        prop = sequential_sample_mean(x, n_count, sigma_sq, state, hp, rng)
        ref = ClusterMeanVector(len(x))
        ref_q, ref_q0 = _reference_walk(ref.inner, x, n_count, sigma_sq, state, hp, ref_rng)

        assert prop.mean.inner.to_dict() == ref.inner.to_dict()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert prop.log_q == pytest.approx(ref_q, rel=REL)
        assert prop.log_q0 == pytest.approx(ref_q0, rel=REL)
        assert eval_log_q(prop.mean, x, n_count, sigma_sq, state, hp) == (
            prop.log_q, prop.log_q0)
        rep_q, rep_q0 = _reference_walk(prop.mean.inner, x, n_count, sigma_sq, state, hp)
        assert prop.log_q == pytest.approx(rep_q, rel=REL)
        assert prop.log_q0 == pytest.approx(rep_q0, rel=REL)

        nonzero = prop.mean.nonzero_count()
        seen_spike_only += nonzero == 0
        seen_slab += prop.mean.inner.labels[{"mid": MID}.get(kind, 0)] != SPIKE
    # Each input kind exercises the path it is meant to.
    if kind == "spike":
        assert seen_spike_only >= len(SEEDS) // 2
    else:
        assert seen_slab >= len(SEEDS) // 2


def _check_inner_gibbs(state, data, hp, cid, seed):
    """One inner Gibbs pass over cluster cid against the reference walk on
    the average residual of the members' current rows."""
    mu_base = state.mean_part.values_vector()
    sigma_sq = state.var_part.values_vector()
    ref_state = state.copy()
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    mem = state.samples.members()[cid]
    gibbs_update_cluster_mean(state, data, hp, cid, rng, mu_base, sigma_sq, mem)

    inner = ref_state.cluster_means[cid].inner
    was_spike = [inner.cluster_of(j) == SPIKE for j in range(inner.n_items)]
    rows = [i for i in range(data.n) if ref_state.samples.cluster_of(i) == cid]
    x = data.y[rows].sum(axis=0) / len(rows) - mu_base
    _reference_walk(inner, x, len(rows), sigma_sq, ref_state, hp, ref_rng)
    row = ref_state.incl_prob[cid]
    for j in range(inner.n_items):
        a = inner.cluster_of(j)
        if (a == SPIKE) != was_spike[j]:
            row[j] = draw_pi_entry(a == SPIKE, float(ref_state.attr_prob[j]), hp, ref_rng)

    assert state.to_dict() == ref_state.to_dict()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("kind", KINDS)
def test_inner_gibbs_matches_reference_walk(kind):
    for seed in SEEDS:
        state, data, hp, cid, _x = _case(kind, seed)
        _check_inner_gibbs(state, data, hp, cid, seed)


def test_inner_gibbs_reads_data_written_in_place():
    """The joint-distribution test redraws the data into the same array
    after every sweep; the inner pass must read the members' new rows."""
    for seed in range(10):
        state, data, hp = make_state(n=6, p=5, seed=seed, require_multi=True)
        sweep(state, data, hp, np.random.default_rng(seed))
        data.y[...] = draw_data(state, np.random.default_rng(100 + seed))
        for cid in state.samples.cluster_ids():
            _check_inner_gibbs(state, data, hp, cid, seed)
