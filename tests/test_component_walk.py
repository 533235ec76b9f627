"""The component walk against a scalar reference.

``_reference_walk`` seats one component at a time, component j by the
uniform u[j], the algorithm the walk's spike-run blocks must reproduce. The
production walk, handed the same uniforms, must draw the same seats and
values, leave the generator in the same position, agree on log Q and log Q0
to rounding, and replay its own proposals bitwise. The proposal is checked
on every bit generator numpy ships.
"""

import copy
import math

import numpy as np
import pytest

from sparseclust.chain import sweep
from sparseclust.clusters import (
    ClusterMeanVector,
    WalkTerms,
    _scan_components,
    _slab_coef,
    gibbs_update_cluster_mean,
)
from sparseclust.densities import LOG_2PI, pick_with_lse
from sparseclust.forward import draw_data
from sparseclust.partition import SPIKE

from conftest import build_partition, make_state

REL = 1e-12


def _ln_norm(x, mean, var):
    d = x - mean
    return -0.5 * (LOG_2PI + math.log(var) + d * d / var)


def _reference_walk(inner, x, n_count, sigma_sq, state, hp, u=None, rng=None):
    """Component-by-component walk on lists of its own: each component leaves
    its seat, then SPIKE / each live inner cluster / a new cluster is
    weighed and the seat drawn with u[j] (or read); then every inner value is
    drawn from ``rng`` (or read). Drawing, the result is written into
    ``inner``. Returns (log_q, log_q0)."""
    replay = u is None
    x = [float(v) for v in x]
    v_obs = [float(s) / n_count for s in sigma_sq]
    precs = [n_count / float(s) for s in sigma_sq]
    s_vec = [_slab_coef(hp) * float(a) for a in state.attr_prob]
    slab_var, conc = state.slab_var, state.conc_inner
    # Seats are SPIKE or a cluster key: the cluster's slot in ``inner`` for
    # the clusters it holds, the next numbers for the clusters drawn here.
    seats = inner.labels.tolist()
    k_start = 0 if replay else inner.n_clusters()
    keys = list(range(k_start))
    counts = inner.sizes() if k_start else []
    sprec = [0.0] * k_start
    sstat = [0.0] * k_start
    for j, a in enumerate(seats):
        if a >= 0 and not replay:
            sprec[a] += precs[j]
            sstat[a] += precs[j] * x[j]
    next_key = k_start
    log_q = log_q0 = 0.0
    for j in range(len(x)):
        a = seats[j]
        if not replay and a != SPIKE:
            t = keys.index(a)
            if counts[t] == 1:
                for lst in (keys, counts, sprec, sstat):
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
        choice, lse = pick_with_lse(logw, None if replay else float(u[j]))
        if replay:
            choice = 0 if a == SPIKE else 1 + (keys.index(a) if a in keys else k)
        log_q += logw[choice] - lse
        if choice == 0:
            log_q0 += log_spike
            seats[j] = SPIKE
            continue
        if choice <= k:
            t = choice - 1
            log_q0 += log_s + math.log(counts[t]) - log_denom
            counts[t] += 1
            sprec[t] += precs[j]
            sstat[t] += precs[j] * x[j]
            seats[j] = keys[t]
        else:
            log_q0 += log_s + math.log(conc) - log_denom
            if not replay:
                seats[j] = next_key
                next_key += 1
            keys.append(seats[j])
            counts.append(1)
            sprec.append(precs[j])
            sstat.append(precs[j] * x[j])
    values = []
    for c in keys:
        # The members' sums in component order, then the prior precision.
        prec = stat = 0.0
        for j in range(len(x)):
            if seats[j] == c:
                prec += precs[j]
                stat += precs[j] * x[j]
        prec += 1.0 / slab_var
        var = 1.0 / prec
        if replay:
            val = float(inner.values[c])
        else:
            val = stat / prec + math.sqrt(var) * rng.standard_normal()
        values.append(val)
        log_q += _ln_norm(val, stat / prec, var)
        log_q0 += _ln_norm(val, 0.0, slab_var)
    if not replay:
        ids = inner.cluster_ids()
        inner.set_slots([ids[c] if c < k_start else None for c in keys],
                        [keys.index(a) if a >= 0 else SPIKE for a in seats], counts, values)
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
    start = ClusterMeanVector(p)
    if kind == "mid":
        state.attr_prob[MID] = 0.9
        x[MID] = 6.0
        start = ClusterMeanVector(p, build_partition([[10]], [5.0], p))
    elif kind in ("dense", "p1") and seed % 2:
        # Components j % 3 == 0 and == 1 form two inner clusters (valued
        # x[0] and x[1]), the rest are SPIKE.
        groups = [list(range(r, p, 3)) for r in (0, 1) if r < p]
        start = ClusterMeanVector(p, build_partition(groups, x[:len(groups)].tolist(), p))
    data.y[state.samples.members()[cid]] = x + mu_base  # the members' mean residual is x
    state.cluster_means[cid] = start
    return state, data, hp, cid, x


KINDS = ("spike", "mid", "dense", "p1")
SEEDS = range(30)
# default_rng's PCG64 keeps the bare kind as its test id.
BIT_GENERATORS = ("PCG64", "MT19937", "Philox", "SFC64")


@pytest.mark.parametrize("kind, bit_generator", [
    pytest.param(kind, name, id=kind if name == "PCG64" else f"{kind}-{name}")
    for name in BIT_GENERATORS for kind in KINDS
])
def test_proposal_matches_reference_walk(kind, bit_generator):
    seen_slab = seen_spike_only = 0
    for seed in SEEDS:
        state, _data, hp, _cid, x = _case(kind, seed)
        sigma_sq = state.var_part.values_vector()
        n_count = 1 + seed % 3
        rng, ref_rng = (np.random.Generator(getattr(np.random, bit_generator)(seed))
                        for _ in range(2))
        terms = WalkTerms(x, n_count, sigma_sq, state, hp)
        mean, log_q, log_q0 = terms.propose(0, rng.random(len(x)), rng)
        ref = ClusterMeanVector(len(x))
        ref_q, ref_q0 = _reference_walk(ref.inner, x, n_count, sigma_sq, state, hp,
                                        ref_rng.random(len(x)), ref_rng)

        assert mean.inner.to_dict() == ref.inner.to_dict()
        # Equal next draws: the two generators stand at the same position.
        assert rng.random(4).tolist() == ref_rng.random(4).tolist()
        assert log_q == pytest.approx(ref_q, rel=REL)
        assert log_q0 == pytest.approx(ref_q0, rel=REL)
        assert _scan_components(mean.inner, terms, 0) == (log_q, log_q0)
        rep_q, rep_q0 = _reference_walk(mean.inner, x, n_count, sigma_sq, state, hp)
        assert log_q == pytest.approx(rep_q, rel=REL)
        assert log_q0 == pytest.approx(rep_q0, rel=REL)

        seen_spike_only += mean.nonzero_count() == 0
        seen_slab += mean.inner.labels[{"mid": MID}.get(kind, 0)] != SPIKE
    # Each input kind exercises the path it is meant to. The inputs do not
    # depend on the generator; the bound was fixed on default_rng's draws
    # (p1 is close to a fair coin, so other streams can fall below it).
    if bit_generator != "PCG64":
        return
    if kind == "spike":
        assert seen_spike_only >= len(SEEDS) // 2
    else:
        assert seen_slab >= len(SEEDS) // 2


def test_replay_reads_slots_out_of_first_appearance_order():
    """A Gibbs pass can leave an inner partition whose slot order is not the
    order in which its clusters first appear along the components; the
    replay must score it as the reference does, and as the same clusters
    held in first-appearance order, bitwise."""
    p = 8
    for seed in range(10):
        state, _data, hp = make_state(n=3, p=p, seed=seed)
        rng = np.random.default_rng(seed)
        state.attr_prob[:] = 0.5
        x = rng.normal(0.0, 1.5, size=p)
        sigma_sq = state.var_part.values_vector()
        n_count = 1 + seed % 3
        terms = WalkTerms(x, n_count, sigma_sq, state, hp)
        late, early = x[5:7].mean(), x[1:3].mean()
        inner = build_partition([[5, 6], [1, 2]], [late, early], p)
        in_order = build_partition([[1, 2], [5, 6]], [early, late], p)

        log_q, log_q0 = _scan_components(inner, terms, 0)
        assert inner.to_dict() == build_partition([[5, 6], [1, 2]], [late, early], p).to_dict()
        assert _scan_components(in_order, terms, 0) == (log_q, log_q0)
        ref_q, ref_q0 = _reference_walk(inner, x, n_count, sigma_sq, state, hp)
        assert log_q == pytest.approx(ref_q, rel=REL)
        assert log_q0 == pytest.approx(ref_q0, rel=REL)


def _check_inner_gibbs(state, data, hp, cid, seed):
    """One inner Gibbs pass over cluster cid against the reference walk on
    the average residual of the members' current rows."""
    mu_base = state.mean_part.values_vector()
    sigma_sq = state.var_part.values_vector()
    ref_state = copy.deepcopy(state)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    mem = state.samples.members()[cid]
    gibbs_update_cluster_mean(state, data, hp, cid, rng, mu_base, sigma_sq, mem)

    inner = ref_state.cluster_means[cid].inner
    rows = [i for i in range(data.n) if ref_state.samples.cluster_of(i) == cid]
    x = data.y[rows].sum(axis=0) / len(rows) - mu_base
    _reference_walk(inner, x, len(rows), sigma_sq, ref_state, hp, ref_rng.random(data.p), ref_rng)

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
