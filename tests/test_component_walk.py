"""The component walks against a scalar reference.

``_reference_walk`` seats one component at a time, component j by the
uniform u[j], the algorithm the walk's blocks must reproduce, and sums the
log densities Q and Q0 of its draws under the proposal and the prior. The
scalar walk from an all-SPIKE mean, handed the same uniforms, must draw the
same seats and values and leave the generator in the same position, on
every bit generator numpy ships. The log W it returns must equal, to
rounding, the sum of the reference's log normalisers and log F + log Q0 -
log Q of its draw (the identity of ``sparseclust.clusters``), and so must a
death's score of the same seats.
"""

import copy
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from sparseclust import clusters
from sparseclust.chain import sweep
from sparseclust.clusters import (
    BirthDeathPass,
    ClusterMeanVector,
    WalkTerms,
    _scan_components,
    _seated_log_w,
    gibbs_update_cluster_mean,
)
from sparseclust.densities import LOG_2PI, SamplerAbort, pick_with_lse
from sparseclust.partition import SPIKE
from sparseclust.sparsity import slab_coef

from conftest import build_partition, make_state, manual_state
from geweke import draw_data

REL = 1e-12


def _ln_norm(x, mean, var):
    d = x - mean
    return -0.5 * (LOG_2PI + math.log(var) + d * d / var)


def _reference_walk(inner, x, n_count, sigma_sq, state, hp, u=None, rng=None, log_zs=None):
    """Component-by-component walk on lists of its own: each component leaves
    its seat, then SPIKE / each live inner cluster / a new cluster is
    weighed and the seat drawn with u[j] (or read); then every inner value is
    drawn from ``rng`` (or read). Drawing, the result is written into
    ``inner``. Returns (log_q, log_q0, log_z): the log densities of the seats
    and values under the proposal and under the prior, and the sum of the
    log normalisers of the seat picks, which are also appended, one per
    component, to the list ``log_zs`` if given."""
    replay = u is None
    x = [float(v) for v in x]
    v_obs = [float(s) / n_count for s in sigma_sq]
    precs = [n_count / float(s) for s in sigma_sq]
    s_vec = [slab_coef(hp) * float(a) for a in state.attr_prob]
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
    log_q = log_q0 = log_z = 0.0
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
        choice, lse = pick_with_lse(logw, 0.0 if replay else float(u[j]))
        if replay:  # the seat is read, not drawn
            choice = 0 if a == SPIKE else 1 + (keys.index(a) if a in keys else k)
        log_q += logw[choice] - lse
        log_z += lse
        if log_zs is not None:
            log_zs.append(lse)
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
    slots = [keys.index(a) if a >= 0 else SPIKE for a in seats]
    values, log_q, log_q0 = _reference_values(
        slots, len(keys), x, precs, slab_var, log_q, log_q0, rng,
        [float(inner.values[c]) for c in keys] if replay else None)
    if not replay:
        ids = inner.cluster_ids()
        inner.set_slots([ids[c] if c < k_start else None for c in keys], slots, counts, values)
    return log_q, log_q0, log_z


def _reference_log_w(mean, x, n_count, sigma_sq, state, hp):
    """log F(x; m) + log Q0(m) - log Q(m) for the mean m, the identity's left
    side: log Q and log Q0 from the reference walk's replay of m, log F the
    normal likelihood of x, whose components each average n_count
    observations."""
    log_q, log_q0, _log_z = _reference_walk(mean.inner, x, n_count, sigma_sq, state, hp)
    log_f = sum(_ln_norm(float(xj), m, float(v) / n_count)
                for xj, m, v in zip(x, mean.mu().tolist(), sigma_sq))
    return log_f + log_q0 - log_q


def _walk_from_spike(terms, i, u, rng):
    """(mean, log W): the scalar walk of row i of ``terms`` from an
    all-SPIKE mean, drawing its seats from ``u`` and its values from
    ``rng``."""
    mean = ClusterMeanVector(terms.x.shape[1])
    return mean, _scan_components(mean.inner, terms, i, u, rng)


def _starts_block(terms, i):
    """Whether row i's scalar walk from an all-SPIKE mean starts a block at
    component 0: it favours SPIKE there with no member seated."""
    return terms.spike[i, 0] >= terms.new[i, 0] - terms.log_conc


def _reference_values(slots, k, x, precs, slab_var, log_q, log_q0, rng=None, values=None):
    """The value tail on lists of its own: for each slot 0..k-1 in order, the
    members' sums in component order, then one ``standard_normal()`` draw
    from ``rng`` (or ``values[t]``) and its two scalar normal log densities.
    Returns (values, log_q, log_q0)."""
    drawn = []
    for t in range(k):
        prec = stat = 0.0
        for j, a in enumerate(slots):
            if a == t:
                prec += precs[j]
                stat += precs[j] * x[j]
        prec += 1.0 / slab_var
        var = 1.0 / prec
        if values is None:
            val = stat / prec + math.sqrt(var) * rng.standard_normal()
        else:
            val = values[t]
        drawn.append(val)
        log_q += _ln_norm(val, stat / prec, var)
        log_q0 += _ln_norm(val, 0.0, slab_var)
    return drawn, log_q, log_q0


MID = 60
# The live kind's components that favour the slab, and the one that starts
# seated far down the vector.
LIVE_EARLY, LIVE_LATE, LIVE_SEATED = 0, 250, 280


def _case(kind, seed):
    """(state, data, hp, cid, x) for one walk input.

    spike: 300 components that favour SPIKE; mid: 120 such components but
    component 60 strongly favours the slab; live: 300 such components but
    components 0 and 250 strongly favour the slab, so runs of SPIKE seats
    with an inner cluster live are walked as blocks that stop at component
    250's seat and start again; dense: 40 slab-favouring components; p1: a
    single component. The inner Gibbs pass starts all SPIKE, except in mid,
    where component 10 starts alone in an inner cluster that empties when it
    leaves, so a block with no member seated starts inside the pass; in
    live, where component 280 starts alone in an inner cluster, so a block
    must stop before it; and in dense and p1 at odd seeds, which start with
    live inner clusters.
    """
    p = {"spike": 300, "mid": 120, "live": 300, "dense": 40, "p1": 1}[kind]
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
    elif kind == "live":
        state.attr_prob[[LIVE_EARLY, LIVE_LATE]] = 0.9
        x[[LIVE_EARLY, LIVE_LATE]] = 6.0
        start = ClusterMeanVector(p, build_partition([[LIVE_SEATED]], [5.0], p))
    elif kind in ("dense", "p1") and seed % 2:
        # Components j % 3 == 0 and == 1 form two inner clusters (valued
        # x[0] and x[1]), the rest are SPIKE.
        groups = [list(range(r, p, 3)) for r in (0, 1) if r < p]
        start = ClusterMeanVector(p, build_partition(groups, x[:len(groups)].tolist(), p))
    data.y[state.samples.members()[cid]] = x + mu_base  # the members' mean residual is x
    state.cluster_means[cid] = start
    return state, data, hp, cid, x


KINDS = ("spike", "mid", "live", "dense", "p1")
SEEDS = range(30)
# default_rng's PCG64 keeps the bare kind as its test id.
BIT_GENERATORS = ("PCG64", "MT19937", "Philox", "SFC64")


@pytest.mark.parametrize("kind, bit_generator", [
    pytest.param(kind, name, id=kind if name == "PCG64" else f"{kind}-{name}")
    for name in BIT_GENERATORS for kind in KINDS
])
def test_proposal_matches_reference_walk(kind, bit_generator):
    """The scalar walk from an all-SPIKE mean draws what the reference walk
    draws, and its log W is the reference's sum of log normalisers and, by
    the identity, log F + log Q0 - log Q of the draw; the death scorer of
    the drawn seats gives the same log W."""
    seen_slab = seen_spike_only = 0
    for seed in SEEDS:
        state, _data, hp, _cid, x = _case(kind, seed)
        sigma_sq = state.var_part.values_vector()
        n_count = 1 + seed % 3
        rng, ref_rng = (np.random.Generator(getattr(np.random, bit_generator)(seed))
                        for _ in range(2))
        terms = WalkTerms(x, n_count, sigma_sq, state, hp)
        mean, log_w = _walk_from_spike(terms, 0, rng.random(len(x)), rng)
        ref = ClusterMeanVector(len(x))
        *_, ref_z = _reference_walk(ref.inner, x, n_count, sigma_sq, state, hp,
                                    ref_rng.random(len(x)), ref_rng)

        assert mean.inner.to_dict() == ref.inner.to_dict()
        # Equal next draws: the two generators stand at the same position.
        assert rng.random(4).tolist() == ref_rng.random(4).tolist()
        _check_log_w(log_w, ref_z, terms, 0, mean, (x, n_count, sigma_sq, state, hp))

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


def _check_log_w(log_w, ref_z, terms, i, mean, reference):
    """A walk's log W for ``mean``, drawn for row i of ``terms``, against the
    reference walk's sum of log normalisers ``ref_z`` and against log F +
    log Q0 - log Q of the mean (``_reference_log_w`` of ``reference``); and
    the death scorer's log W of the mean's seats against the same."""
    want = _reference_log_w(mean, *reference)
    assert log_w == pytest.approx(ref_z, rel=REL)
    assert log_w == pytest.approx(want, rel=REL)
    assert _seated_log_w(terms, i, mean.inner) == pytest.approx(want, rel=REL)


def _record_live_blocks(monkeypatch):
    """Record every block the walk scores as (start, end, stop, choice):
    components start..stop-1 go to SPIKE, and the seat of component stop,
    if it is before the end and its weights are finite, is choice; else
    choice is None. A one-component block that seats SPIKE is recorded as
    one that reaches its end."""
    blocks = []
    block = clusters._block

    def recorded(terms, i, j, end, *args, **kwargs):
        result = c, choice, lse = block(terms, i, j, end, *args, **kwargs)
        if choice is not None and math.isnan(lse[c]):
            choice = None
        elif choice == 0:  # SPIKE, in a block of one component
            c, choice = end - j, None
        blocks.append((j, end, j + c, choice))
        return result

    monkeypatch.setattr(clusters, "_block", recorded)
    return blocks


def test_live_blocks_stop_at_a_slab_seat_and_start_again(monkeypatch):
    """In the live kind, once component 0 is seated off SPIKE and 16 more
    on SPIKE, the walk seats the rest of the run as one block; the block
    stops at component 250's seat off SPIKE, and after 16 more SPIKE seats
    a block starts again."""
    blocks = _record_live_blocks(monkeypatch)
    seen = 0
    for seed in SEEDS:
        state, _data, hp, _cid, x = _case("live", seed)
        sigma_sq = state.var_part.values_vector()
        rng = np.random.default_rng(seed)
        terms = WalkTerms(x, 1 + seed % 3, sigma_sq, state, hp)
        del blocks[:]
        mean = _walk_from_spike(terms, 0, rng.random(len(x)), rng)[0]
        drawn = blocks[:]
        if np.flatnonzero(mean.inner.labels != SPIKE).tolist() != [LIVE_EARLY, LIVE_LATE]:
            continue
        seen += 1
        p, run = len(x), clusters._LIVE_RUN
        assert [b[:3] for b in drawn] == [
            (LIVE_EARLY + 1 + run, p, LIVE_LATE), (LIVE_LATE + 1 + run, p, p)]
        assert drawn[0][3] in (1, 2) and drawn[1][3] is None
    assert seen >= len(SEEDS) // 2


def test_live_block_stops_before_a_start_seated_component(monkeypatch):
    """In the live kind's inner Gibbs pass component 280 starts seated, so
    an inner cluster is live from the first component on, and no block may
    span component 280: it leaves its seat before it is weighed."""
    blocks = _record_live_blocks(monkeypatch)
    for seed in SEEDS:
        state, data, hp, cid, _x = _case("live", seed)
        del blocks[:]
        _check_inner_gibbs(state, data, hp, cid, seed)
        assert blocks and all(not (j < LIVE_SEATED < end) for j, end, _, _ in blocks)
        assert any(end == LIVE_SEATED for _, end, _, _ in blocks)


@pytest.mark.parametrize("bad, message", [
    (np.inf, "all log weights are -inf"), (np.nan, r"non-finite log weights \[nan")])
def test_live_block_aborts_as_the_scalar_pick(bad, message, monkeypatch):
    """A component with a non-finite residual inside a live block stops the
    block, and the scalar pick aborts on it with its own message; a death's
    score of the same seats aborts with the same message. A block with no
    member seated stops and aborts the same way
    (``tests/test_walk_terms.py``)."""
    state, _data, hp, _cid, x = _case("live", 0)
    p = len(x)
    sigma_sq = state.var_part.values_vector()
    vector = build_partition([[LIVE_EARLY]], [6.0], p)
    u = np.random.default_rng(0).random(p)
    blocks = _record_live_blocks(monkeypatch)
    terms = WalkTerms(x, 1, sigma_sq, state, hp)
    _scan_components(copy.deepcopy(vector), terms, 0, u, np.random.default_rng(0))
    assert sum(j <= 200 < end for j, end, _, _ in blocks) == 1  # in a live block

    x[200] = bad
    bad_terms = WalkTerms(x, 1, sigma_sq, state, hp)
    with pytest.raises(SamplerAbort, match=message):
        _scan_components(copy.deepcopy(vector), bad_terms, 0, u, np.random.default_rng(0))
    with pytest.raises(SamplerAbort, match=message):
        _seated_log_w(bad_terms, 0, vector)


# (live block cells, SPIKE seats before a live block): one-component blocks
# at the cap that start after every SPIKE seat, and short blocks that start
# early, so blocks also end on SPIKE and start again at once.
SMALL_BLOCKS = ((24, 1), (120, 4))


@pytest.mark.parametrize("cells, run", SMALL_BLOCKS)
@pytest.mark.parametrize("kind", KINDS)
def test_small_live_blocks_match_reference_walk(kind, cells, run, monkeypatch):
    """With short live blocks that start early, the walk from an all-SPIKE
    mean and the inner Gibbs pass still match the reference walk, log W
    included."""
    monkeypatch.setattr(clusters, "_BLOCK_CELLS", cells)
    monkeypatch.setattr(clusters, "_LIVE_RUN", run)
    blocks = _record_live_blocks(monkeypatch)
    for seed in SEEDS:
        state, data, hp, cid, x = _case(kind, seed)
        sigma_sq = state.var_part.values_vector()
        n_count = 1 + seed % 3
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        terms = WalkTerms(x, n_count, sigma_sq, state, hp)
        mean, log_w = _walk_from_spike(terms, 0, rng.random(len(x)), rng)
        ref = ClusterMeanVector(len(x))
        *_, ref_z = _reference_walk(ref.inner, x, n_count, sigma_sq, state, hp,
                                    ref_rng.random(len(x)), ref_rng)

        assert mean.inner.to_dict() == ref.inner.to_dict()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        _check_log_w(log_w, ref_z, terms, 0, mean, (x, n_count, sigma_sq, state, hp))
        _check_inner_gibbs(state, data, hp, cid, seed)
    assert blocks or kind == "p1"  # one component leaves no room for a block


def test_death_scorer_reads_slots_out_of_first_appearance_order():
    """A Gibbs pass can leave an inner partition whose slot order is not the
    order in which its clusters first appear along the components; a
    death's score must give it the reference's log F + log Q0 - log Q, and
    the log W of the same clusters held in first-appearance order, to
    rounding, leaving the partition untouched."""
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

        log_w = _seated_log_w(terms, 0, inner)
        assert inner.to_dict() == build_partition([[5, 6], [1, 2]], [late, early], p).to_dict()
        assert _seated_log_w(terms, 0, in_order) == pytest.approx(log_w, rel=REL)
        want = _reference_log_w(ClusterMeanVector(p, inner), x, n_count, sigma_sq, state, hp)
        assert log_w == pytest.approx(want, rel=REL)


def _check_inner_gibbs(state, data, hp, cid, seed):
    """One inner Gibbs pass over cluster cid against the reference walk on
    the average residual of the members' current rows; and the log W of
    the same walk, which the pass does not read, against the reference's
    sum of log normalisers."""
    mu_base = state.mean_part.values_vector()
    sigma_sq = state.var_part.values_vector()
    ref_state = copy.deepcopy(state)
    walk_inner = copy.deepcopy(state.cluster_means[cid].inner)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    mem = state.samples.members()[cid]
    gibbs_update_cluster_mean(state, data, hp, cid, rng, mu_base, sigma_sq, mem)

    inner = ref_state.cluster_means[cid].inner
    rows = [i for i in range(data.n) if ref_state.samples.cluster_of(i) == cid]
    x = data.y[rows].sum(axis=0) / len(rows) - mu_base
    walk_rng = copy.deepcopy(ref_rng)
    *_, ref_z = _reference_walk(inner, x, len(rows), sigma_sq, ref_state, hp,
                                ref_rng.random(data.p), ref_rng)

    assert state.to_dict() == ref_state.to_dict()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    log_w = _scan_components(walk_inner, WalkTerms(x, len(rows), sigma_sq, ref_state, hp), 0,
                             walk_rng.random(data.p), walk_rng)
    assert log_w == pytest.approx(ref_z, rel=REL)


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


# -- birth/death passes ----------------------------------------------------------

# The mixed kind's components where the even rows' residuals are large.
MIXED_LEAD = 20


def _birth_pass(kind, seed):
    """(state, hp, bd): a ``BirthDeathPass`` of 8 rows whose birth walks
    cover the walk's paths. dense: 40 slab-favouring components, many inner
    clusters; live: the live kind's 300 components on every row, so rows
    leave SPIKE at the two live components and sit on SPIKE in long blocks
    around them; mixed: 120 SPIKE-favouring components but component 0,
    where the odd rows' residuals are near 0, while the even rows' large
    residuals on components 0-19 seat several of them; spike: 300
    SPIKE-favouring components, so most rows never leave SPIKE; full: the
    dense kind's rows at 64 components with attr_prob near 1, but the even
    rows' residuals so far from 0 that they leave SPIKE at every component,
    so their member totals reach p."""
    n = 8
    p = {"dense": 40, "live": 300, "mixed": 120, "spike": 300, "full": 64}[kind]
    state, _data, hp = make_state(n=3, p=p, seed=seed)
    rng = np.random.default_rng(20_000 + seed)
    if kind in ("dense", "full"):
        state.attr_prob[:] = 0.9 if kind == "dense" else 1.0 - 1e-9
        x = rng.normal(0.0, 3.0, size=(n, p))
        if kind == "full":
            x[::2] = rng.normal(20.0, 2.0, size=(n // 2, p))
    else:
        state.attr_prob[:] = 1e-3
        x = rng.normal(0.0, 0.3, size=(n, p))
    if kind == "live":
        state.attr_prob[[LIVE_EARLY, LIVE_LATE]] = 0.9
        x[:, [LIVE_EARLY, LIVE_LATE]] = 6.0
    elif kind == "mixed":
        state.attr_prob[0] = 0.9
        x[::2, :MIXED_LEAD] *= 20.0
        x[1::2, 0] *= 0.1
    mu_base = state.mean_part.values_vector()
    return state, hp, BirthDeathPass(x + mu_base, mu_base, state.var_part.values_vector(),
                                     state, hp)


def _reference_births_and_deaths(state, data, rng, bd, walk=None):
    """The per-sample pass: one (n, p + 1) uniform matrix, then a birth move
    per non-singleton and a death move per singleton, in sample order, move
    i reading row i, with no row skipped but those the pass's screen marks
    (``screened_births``, among the samples that start as non-singletons),
    whose births reject whatever their walks draw
    (``test_screened_rows_reject_when_walked``). A birth walks in full, by
    ``walk(i, u, rng)`` (default: the scalar walk with no stop), with a
    copy of the generator, and is scored by its log W; only an accepted
    birth draws its values from ``rng``. Returns per sample (move, whether
    its proposal seated a component off SPIKE, accepted); a screened row's
    is ("screened", None, False)."""
    if walk is None:
        def walk(i, u, rng):
            return _walk_from_spike(bd, i, u, rng)
    u = rng.random((data.n, data.p + 1))
    samples = state.samples
    screened = ((samples.counts[samples.labels] > 1)
                & bd.screened_births(state, u, bd.own_loglik(state))).tolist()
    events = []
    for i in range(data.n):
        if samples.cluster_size(i) == 1:
            accepted, _log_ratio = clusters.mh_death_move(state, i, bd, u[i])
            events.append(("death", False, accepted))
        elif screened[i]:
            events.append(("screened", None, False))
        else:
            walk_rng = copy.deepcopy(rng)
            try:
                mean, log_w = walk(i, u[i], walk_rng)
            except SamplerAbort as exc:
                raise SamplerAbort(f"birth proposal i={i}: {exc}") from exc
            log_f_old = bd.loglik_column(state, samples.cluster_of(i)).item(i)
            log_ratio = bd.birth_log_ratio(state, log_f_old, log_w)
            accepted = log_ratio >= 0.0 or u[i, -1] < math.exp(log_ratio)
            if accepted:  # the values drawn by the walk
                rng.bit_generator.state = walk_rng.bit_generator.state
                state.cluster_means[samples.move(i)] = mean
            events.append(("birth", mean.inner.n_clusters() > 0, accepted))
    return events


def _reference_proposal(bd, state, hp):
    """A ``walk`` for ``_reference_births_and_deaths``: the birth proposal of
    row i drawn by ``_reference_walk`` on the pass's row, scored by log F +
    log Q0 - log Q of the draw."""

    def propose(i, u, rng):
        mean = ClusterMeanVector(bd.x.shape[1])
        log_q, log_q0, _log_z = _reference_walk(mean.inner, bd.x[i], 1, bd.sigma_sq, state, hp,
                                                u, rng)
        return mean, bd.loglik(i, mean) + log_q0 - log_q

    return propose


def _proposal_bits(bd, i, proposal):
    """A proposal's partition, values, log W and log likelihood of row i,
    floats as ``float.hex``."""
    mean, log_w = proposal
    inner = mean.inner.to_dict()
    inner["values"] = [v.hex() for v in inner["values"]]
    return inner, log_w.hex(), bd.loglik(i, mean).hex()



# -- the pass's birth walks ------------------------------------------------------
# A pass once seated its births together, in lockstep, before proposing
# them one by one; the tests below keep the names they had then. Each birth
# is now the scalar walk of its row, stopped where the screen's bound
# proves that it rejects.

PASS_KINDS = ("dense", "live", "mixed", "spike")


def _next_draws(rng):
    """The next four draws of a copy of ``rng``, to compare positions."""
    return copy.deepcopy(rng).random(4).tolist()


@pytest.mark.parametrize("kind, bit_generator", [
    pytest.param(kind, name, id=kind if name == "PCG64" else f"{kind}-{name}")
    for name in BIT_GENERATORS for kind in PASS_KINDS + ("full",)
])
def test_lockstep_matches_reference_walk(kind, bit_generator):
    """Every row of a pass, proposed in sample order with the screen's stop
    armed (F_old the all-SPIKE likelihood), draws the seats and values the
    reference walk draws from the same uniforms and leaves the generator
    where it leaves it; its log W, and the death scorer's of its seats,
    equal the reference's to rounding. A row the stop ends draws nothing,
    and the birth of the reference's full walk rejects. The full kind
    reaches member total p."""
    seen = dict.fromkeys(("3+ inner clusters", "never off SPIKE", "member total p",
                          "walked in full"), 0)
    for seed in range(8):
        state, hp, bd = _birth_pass(kind, seed)
        n, p = bd.x.shape
        rng, ref_rng = (np.random.Generator(getattr(np.random, bit_generator)(seed))
                        for _ in range(2))
        u = rng.random((n, p + 1))
        ref_rng.random((n, p + 1))
        log_f_old = bd.zero_loglik
        bd.screened_births(state, u, log_f_old)
        for i in range(n):
            mean, log_w = bd.propose(i, u[i], rng)
            ref = ClusterMeanVector(p)
            walk_rng = copy.deepcopy(ref_rng)
            *_, ref_z = _reference_walk(ref.inner, bd.x[i], 1, bd.sigma_sq, state, hp,
                                        u[i], walk_rng)
            if mean is None:
                # Equal next draws: the stopped walk left its generator untouched.
                assert _next_draws(rng) == _next_draws(ref_rng), (seed, i)
                log_ratio = bd.birth_log_ratio(state, log_f_old.item(i), ref_z)
                assert not clusters._mh_accepts(log_ratio, u[i, p]), (seed, i)
            else:
                ref_rng = walk_rng
                assert mean.inner.to_dict() == ref.inner.to_dict(), (seed, i)
                _check_log_w(log_w, ref_z, bd, i, mean, (bd.x[i], 1, bd.sigma_sq, state, hp))
                seen["walked in full"] += 1
            seen["3+ inner clusters"] += ref.inner_cluster_count() >= 3
            seen["never off SPIKE"] += ref.nonzero_count() == 0
            seen["member total p"] += ref.nonzero_count() == p
        # Equal next draws: the two generators stand at the same position.
        assert rng.random(4).tolist() == ref_rng.random(4).tolist(), seed
    assert seen["walked in full"], seen
    if kind in ("dense", "spike"):
        assert seen["3+ inner clusters" if kind == "dense" else "never off SPIKE"], seen
    if kind == "full":
        assert seen["member total p"], seen


@pytest.mark.parametrize("kind", PASS_KINDS + ("full",))
def test_precheck_log_w_is_the_identity(kind):
    """Every row's all-SPIKE proposal, which a precheck of rejected births
    once scored, is the walk at uniforms 0: it never leaves SPIKE and draws
    nothing. Its log W equals the reference's log F + log Q0 - log Q of the
    all-SPIKE mean, and a death's score of that mean, to rounding, and the
    screen's bound rest[i, 0] is above it."""
    for seed in range(8):
        state, hp, bd = _birth_pass(kind, seed)
        n, p = bd.x.shape
        bd.screened_births(state, np.random.default_rng(seed).random((n, p + 1)),
                           bd.zero_loglik)
        spike = ClusterMeanVector(p)
        for i in range(n):
            rng = np.random.default_rng(seed)
            before = rng.bit_generator.state
            mean, log_w = _walk_from_spike(bd, i, np.zeros(p), rng)
            assert mean.nonzero_count() == 0 and rng.bit_generator.state == before, (seed, i)
            want = _reference_log_w(spike, bd.x[i], 1, bd.sigma_sq, state, hp)
            assert log_w == pytest.approx(want, rel=REL), (seed, i)
            assert _seated_log_w(bd, i, spike.inner) == pytest.approx(want, rel=REL), (seed, i)
            assert log_w < bd.rest[i, 0], (seed, i)


def _one_component_blocks(monkeypatch):
    """Make every block of the walk weigh one component."""
    block = clusters._block

    def one(terms, i, j, end, *args):
        return block(terms, i, j, j + 1, *args)

    monkeypatch.setattr(clusters, "_block", one)


@pytest.mark.parametrize("kind", PASS_KINDS)
def test_lockstep_blocks_match_one_component_steps(kind, monkeypatch):
    """With every block cut to one component, the pass's walks give every
    row the seats, values and generator position of the default walks,
    whose blocks weigh many components at once, bit for bit, and log W to
    rounding. Every kind but dense has rows whose default walks seat two
    components or more on SPIKE in one block; dense has rows that leave
    SPIKE at most components, where the walk weighs one component at a
    time."""
    runs = 0
    for seed in range(8):
        state, hp, bd = _birth_pass(kind, seed)
        n, p = bd.x.shape
        u = np.random.default_rng(seed).random((n, p + 1))
        sides = []
        for cut in (False, True):
            with monkeypatch.context() as patch:
                blocks = _record_live_blocks(patch)
                if cut:
                    _one_component_blocks(patch)
                rng = np.random.default_rng(seed)
                walks = [_walk_from_spike(bd, i, u[i], rng) for i in range(n)]
                sides.append((walks, rng.bit_generator.state, blocks[:]))
        (walks, end_state, blocks), (cut_walks, cut_state, _) = sides
        assert end_state == cut_state, seed
        for i, ((mean, log_w), (cut_mean, cut_log_w)) in enumerate(zip(walks, cut_walks)):
            assert mean.inner.to_dict() == cut_mean.inner.to_dict(), (seed, i)
            assert log_w == pytest.approx(cut_log_w, rel=REL), (seed, i)
        if kind == "dense":
            runs += any(2 * mean.nonzero_count() > p for mean, _log_w in walks)
        else:
            runs += any(stop - start >= 2 for start, _end, stop, _choice in blocks)
    assert runs


@pytest.mark.parametrize("bad, message", [
    (np.inf, "all log weights are -inf"), (np.nan, r"non-finite log weights \[nan")],
    ids=["inf", "nan"])
def test_lockstep_leaves_a_non_finite_row_to_the_scalar_walk(bad, message):
    """A row holding a non-finite residual is neither screened nor stopped
    (its floor is NaN); its birth move walks it and aborts with the message
    of the per-sample reference pass (births drawn by ``_reference_walk``),
    naming the sample, after the same moves before it, leaving the state and
    the generator where the reference pass does."""
    bad_row, n, p = 5, 8, 6
    y = np.random.default_rng(2).normal(0.0, 1.5, size=(n, p))
    sides = []
    for reference in (False, True):
        state, data, hp = manual_state(y.copy(), sigma_sq=[0.5] * p, attr_prob=0.5)
        data.y[bad_row, 3] = bad  # past DataMatrix's check
        rng = np.random.default_rng(3)
        bd = BirthDeathPass(data.y, state.mean_part.values_vector(),
                            state.var_part.values_vector(), state, hp)
        with pytest.raises(SamplerAbort, match=message) as abort:
            if reference:
                _reference_births_and_deaths(state, data, rng, bd,
                                             _reference_proposal(bd, state, hp))
            else:
                clusters._births_and_deaths(state, rng, bd)
        sides.append((str(abort.value), state.to_dict(), rng.random(4).tolist(),
                      math.isnan(bd.floor[bad_row])))
    (message_pass, *got, no_stop), (message_ref, *want, _) = sides
    assert message_pass == message_ref
    assert message_pass.startswith(f"birth proposal i={bad_row}: ")
    assert got == want
    assert no_stop


# Bits of the pass's walks on each kind's passes of seeds 0-2, row i
# reading row i of ``default_rng(seed).random((n, p + 1))`` and drawing its
# values from one ``default_rng(seed)``, with no stop: per seed, the first
# 16 hex digits of the SHA-256 over every row's seats (int64) and the
# ``float.hex`` of its log W (``_lockstep_digest``). A block adds the log
# normalisers of its SPIKE seats by one reduction, so the pins hold where
# the blocks fall as well as each step's arithmetic. numpy's exp and log
# differ in the last bit between SIMD targets, so the pins are keyed by a
# probe of both (``_exp_log_probe``).
LOCKSTEP_PINS = {
    # x86-64 with numpy's AVX-512 (X86_V4) exp and log
    "4117a7b1b2889523": {
        "dense": ["f0319b26ca57c845", "48c5b964840e8814", "42ba918204cb1bfd"],
        "live": ["5fe08bfe85f2849a", "745b95b2d87a4afd", "be6206b6a550ba1f"],
        "mixed": ["f0ed8c4e8946f8c4", "7b2a77ee2e3be58f", "6b18c6d9077921df"],
        "spike": ["4bc93c17c6f57f9a", "75d644fad7150ecd", "408e372ee17696ce"],
    },
    # x86-64 with those kernels disabled (or absent): the C library's exp and log
    "6469758e9361ab7d": {
        "dense": ["f0319b26ca57c845", "48c5b964840e8814", "42ba918204cb1bfd"],
        "live": ["5fe08bfe85f2849a", "745b95b2d87a4afd", "be6206b6a550ba1f"],
        "mixed": ["f0ed8c4e8946f8c4", "7b2a77ee2e3be58f", "6b18c6d9077921df"],
        "spike": ["4bc93c17c6f57f9a", "75d644fad7150ecd", "408e372ee17696ce"],
    },
}


def _exp_log_probe():
    """The first 16 hex digits of the SHA-256 over numpy's exp and log of a
    fixed grid: which exp and log this platform's numpy computes."""
    x = np.linspace(-40.0, 40.0, 4001)
    return hashlib.sha256(np.exp(x).tobytes() + np.log(np.abs(x) + 0.5).tobytes()).hexdigest()[:16]


def _lockstep_digest(kind, seed):
    _state, _hp, bd = _birth_pass(kind, seed)
    n, p = bd.x.shape
    u = np.random.default_rng(seed).random((n, p + 1))
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for i in range(n):
        mean, log_w = _walk_from_spike(bd, i, u[i], rng)
        h.update(np.asarray(mean.inner.labels, dtype=np.int64).tobytes())
        h.update(f"{float(log_w).hex()};".encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("kind", PASS_KINDS)
def test_lockstep_seats_match_pinned_bits(kind):
    """The walks' seats and log W of every row equal, bit for bit, those
    pinned for this platform's exp and log. The reference-walk test allows
    rounding (REL); this pin does not. A platform whose numpy exp and log
    match neither recorded probe has no pin to compare with."""
    pins = LOCKSTEP_PINS.get(_exp_log_probe())
    if pins is None:
        pytest.skip(f"no walk pin for this numpy's exp and log (probe {_exp_log_probe()})")
    assert [_lockstep_digest(kind, seed) for seed in range(3)] == pins[kind]


def _scalar_tail(bd, i, proposal, rng):
    """(mean, log W) of row i with the seats of ``proposal``, a walk's (mean,
    log W), its values drawn by the reference walk's scalar tail
    (``_reference_values``), one ``standard_normal()`` per inner cluster."""
    walked, log_w = proposal
    seats, counts = walked.inner.labels.copy(), walked.inner.sizes()
    mean = ClusterMeanVector(len(seats))
    if counts:
        values, _log_q, _log_q0 = _reference_values(
            seats.tolist(), len(counts), bd.x[i].tolist(), bd.prec.tolist(), bd.slab_var,
            0.0, 0.0, rng)
        mean.inner.set_slots([None] * len(counts), seats, counts, values)
    return mean, log_w


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_lockstep_value_tail_matches_scalar_tail(bit_generator):
    """Every row's walk draws its k values with one ``standard_normal(k)``
    from the posterior of its seats: its values, log W and log likelihood
    equal, bit for bit, those of the reference walk's scalar tail on the
    same seats with ``BirthDeathPass.loglik``, and the generator stands
    where k scalar draws leave it, after every row."""
    drew = 0
    for kind in PASS_KINDS:
        for seed in range(4):
            _state, _hp, bd = _birth_pass(kind, seed)
            n, p = bd.x.shape
            u = np.random.default_rng(seed).random((n, p + 1))
            rng, ref_rng = (np.random.Generator(getattr(np.random, bit_generator)(seed))
                            for _ in range(2))
            for i in range(n):
                proposal = bd.propose(i, u[i], rng)
                got = _proposal_bits(bd, i, proposal)
                assert got == _proposal_bits(bd, i, _scalar_tail(bd, i, proposal, ref_rng)), \
                    (kind, seed, i)
                assert rng.random() == ref_rng.random(), (kind, seed, i)
                drew += proposal[0].inner.n_clusters() > 0
    assert drew


# -- the block routine ----------------------------------------------------------


def _block_inputs(seed, k):
    """Terms of 6 rows and 30 components, each row's slot terms (k slots;
    slot 0 emptied, at log count -inf, on rows 0 and 3, and on row 5 the
    last slot too), CRP log denominators and uniforms."""
    rng = np.random.default_rng(seed)
    rows, p = 6, 30
    x = rng.normal(0.0, 1.0, size=(rows, p))
    terms = SimpleNamespace(spike=rng.normal(-0.5, 1.0, size=(rows, p)),
                            new=rng.normal(-1.5, 1.0, size=(rows, p)), x=x,
                            log_s=rng.normal(-0.7, 0.3, size=p), v_obs=rng.uniform(0.1, 1.0, size=p))
    log_c = np.log(rng.integers(1, 4, size=(k, rows, 1)).astype(float))
    if k:
        log_c[0, [0, 3]] = -math.inf
        log_c[k - 1:, 5] = -math.inf
    slots = (log_c, rng.normal(0.0, 1.0, size=(k, rows, 1)), rng.uniform(0.05, 0.5, size=(k, rows, 1)))
    log_denom = np.log(1.0 + rng.integers(0, 5, size=(rows, 1)))
    return terms, slots if k else None, log_denom, rng.random((rows, p)) ** 3


def _block_oracle(terms, r, j, end, slots, log_denom, u):
    """Row r's block by the scalar step's sums in numpy, with numpy's
    accumulate for the running sums: (stop, seat, lse), where seat(c) gives
    the seat at component c and lse every component's log normaliser."""
    k = 0 if slots is None else len(slots[0])
    w = np.empty((k + 2, end - j))
    w[0] = terms.spike[r, j:end]
    for t in range(k):
        log_c, mean, var = (a[t, r, 0] for a in slots)
        var = var + terms.v_obs[j:end]
        d = terms.x[r, j:end] - mean
        w[1 + t] = terms.log_s[j:end] + log_c - log_denom[r, 0] - 0.5 * (
            LOG_2PI + np.log(var) + d * d / var)
    w[-1] = terms.new[r, j:end] - log_denom[r, 0]
    top = np.maximum.reduce(w)
    acc = np.add.accumulate(np.exp(w - top))
    stays = u[r, j:end] * acc[-1] <= acc[0]
    stop = int(np.argmin(stays)) if not stays.all() else end - j

    def seat(c):
        return int(np.searchsorted(acc[:, c], u[r, j + c] * acc[-1, c]))

    return stop, seat, top + np.log(acc[-1])


@pytest.mark.parametrize("k", range(4), ids="{}-draw".format)
def test_block_matches_scalar_step_sums(k):
    """``_block`` gives a row, bit for bit, what the scalar step's sums with
    numpy's accumulate give: its stop, its seat there and the log
    normaliser at every component. A one-component block seats the row at
    its component. Blocks of 1, 7 and 30 components, 0-3 slots and emptied
    slots."""
    seen = dict.fromkeys(("row leaves SPIKE", "row stays through"), 0)
    for seed in range(12):
        terms, slots, log_denom, u = _block_inputs(100 * k + seed, k)
        for j, end in ((4, 5), (11, 18), (0, 30)):
            width = end - j
            for r in range(6):
                c, choice, lse = clusters._block(
                    terms, r, j, end, log_denom.item(r), u[r],
                    None if slots is None else tuple(a[:, r] for a in slots))
                stop, seat, want_lse = _block_oracle(terms, r, j, end, slots, log_denom, u)
                assert c == (0 if width == 1 else stop), (seed, j, r)
                assert lse.tolist() == want_lse.tolist(), (seed, j, r)
                if c < width:
                    assert choice == seat(c), (seed, j, r)
                else:
                    assert choice is None
                seen["row leaves SPIKE" if stop < width else "row stays through"] += 1
    assert all(seen.values()), seen
