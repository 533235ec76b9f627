"""The component walks against a scalar reference.

``_reference_walk`` seats one component at a time, component j by the
uniform u[j], the algorithm the walks' blocks must reproduce. The scalar
walk from an all-SPIKE mean and the lockstep of a birth/death pass, handed
the same uniforms, must draw the same seats and values, leave the generator
in the same position and agree on log Q and log Q0 to rounding; the scalar
walk must replay its own draws bitwise. Both are checked on every bit
generator numpy ships.
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
    gibbs_update_cluster_mean,
)
from sparseclust.densities import LOG_2PI, SamplerAbort, log_normal_pdf, pick_with_lse
from sparseclust.partition import SPIKE
from sparseclust.sparsity import slab_coef

from conftest import build_partition, make_state, manual_state
from geweke import draw_data

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
    slots = [keys.index(a) if a >= 0 else SPIKE for a in seats]
    values, log_q, log_q0 = _reference_values(
        slots, len(keys), x, precs, slab_var, log_q, log_q0, rng,
        [float(inner.values[c]) for c in keys] if replay else None)
    if not replay:
        ids = inner.cluster_ids()
        inner.set_slots([ids[c] if c < k_start else None for c in keys], slots, counts, values)
    return log_q, log_q0


def _walk_from_spike(terms, i, u, rng):
    """(mean, log Q, log Q0): the scalar walk of row i of ``terms`` from an
    all-SPIKE mean, drawing its seats from ``u`` and its values from
    ``rng``."""
    mean = ClusterMeanVector(terms.x.shape[1])
    return (mean, *_scan_components(mean.inner, terms, i, u, rng))


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
    """The scalar walk from an all-SPIKE mean (the form of an inner Gibbs
    pass that a death replays) draws what the reference walk draws."""
    seen_slab = seen_spike_only = 0
    for seed in SEEDS:
        state, _data, hp, _cid, x = _case(kind, seed)
        sigma_sq = state.var_part.values_vector()
        n_count = 1 + seed % 3
        rng, ref_rng = (np.random.Generator(getattr(np.random, bit_generator)(seed))
                        for _ in range(2))
        terms = WalkTerms(x, n_count, sigma_sq, state, hp)
        mean, log_q, log_q0 = _walk_from_spike(terms, 0, rng.random(len(x)), rng)
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


def _record_live_blocks(monkeypatch):
    """Record every block the walk scores as (start, end, stop, choice):
    components start..stop-1 go to SPIKE, and the seat of component stop,
    if it is before the end and its weights are finite, is choice; else
    choice is None. A one-component block that seats SPIKE is recorded as
    one that reaches its end."""
    blocks = []
    block = clusters._block

    def recorded(terms, rows, j, end, *args, **kwargs):
        result = _stays, c, choice, seat_q, _spike_q = block(terms, rows, j, end, *args, **kwargs)
        if choice is None or math.isnan(seat_q[choice[0], 0]):
            choice = None
        elif choice[0] == 0:  # SPIKE, in a block of one component
            c, choice = end - j, None
        else:
            choice = int(choice[0])
        blocks.append((j, end, j + c, choice))
        return result

    monkeypatch.setattr(clusters, "_block", recorded)
    return blocks


def test_live_blocks_stop_at_a_slab_seat_and_start_again(monkeypatch):
    """In the live kind, once component 0 is seated off SPIKE and 16 more
    on SPIKE, the walk seats the rest of the run as one block; the block
    stops at component 250's seat off SPIKE, and after 16 more SPIKE seats
    a block starts again. The replay walks the same blocks."""
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
        del blocks[:]
        _scan_components(mean.inner, terms, 0)
        assert blocks == drawn
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
    block, and the scalar pick aborts on it with its own message, drawing
    and replaying alike. A block with no member seated stops and aborts the
    same way (``tests/test_walk_terms.py``)."""
    state, _data, hp, _cid, x = _case("live", 0)
    p = len(x)
    sigma_sq = state.var_part.values_vector()
    vector = build_partition([[LIVE_EARLY]], [6.0], p)
    u = np.random.default_rng(0).random(p)
    blocks = _record_live_blocks(monkeypatch)
    terms = WalkTerms(x, 1, sigma_sq, state, hp)
    _scan_components(copy.deepcopy(vector), terms, 0, u, np.random.default_rng(0))
    _scan_components(vector, terms, 0)
    assert sum(j <= 200 < end for j, end, _, _ in blocks) == 2  # both in a live block

    x[200] = bad
    bad_terms = WalkTerms(x, 1, sigma_sq, state, hp)
    with pytest.raises(SamplerAbort, match=message):
        _scan_components(copy.deepcopy(vector), bad_terms, 0, u, np.random.default_rng(0))
    with pytest.raises(SamplerAbort, match=message):
        _scan_components(vector, bad_terms, 0)


# (live block cells, SPIKE seats before a live block): one-component blocks
# at the cap that start after every SPIKE seat, and short blocks that start
# early, so blocks also end on SPIKE and start again at once.
SMALL_BLOCKS = ((24, 1), (120, 4))


@pytest.mark.parametrize("cells, run", SMALL_BLOCKS)
@pytest.mark.parametrize("kind", KINDS)
def test_small_live_blocks_match_reference_walk(kind, cells, run, monkeypatch):
    """With short live blocks that start early, the walk from an all-SPIKE
    mean and the inner Gibbs pass still match the reference walk, and the
    replay is still bitwise the walk."""
    monkeypatch.setattr(clusters, "_BLOCK_CELLS", cells)
    monkeypatch.setattr(clusters, "_LIVE_RUN", run)
    blocks = _record_live_blocks(monkeypatch)
    for seed in SEEDS:
        state, data, hp, cid, x = _case(kind, seed)
        sigma_sq = state.var_part.values_vector()
        n_count = 1 + seed % 3
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        terms = WalkTerms(x, n_count, sigma_sq, state, hp)
        mean, log_q, log_q0 = _walk_from_spike(terms, 0, rng.random(len(x)), rng)
        ref = ClusterMeanVector(len(x))
        ref_q, ref_q0 = _reference_walk(ref.inner, x, n_count, sigma_sq, state, hp,
                                        ref_rng.random(len(x)), ref_rng)

        assert mean.inner.to_dict() == ref.inner.to_dict()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert log_q == pytest.approx(ref_q, rel=REL)
        assert log_q0 == pytest.approx(ref_q0, rel=REL)
        assert _scan_components(mean.inner, terms, 0) == (log_q, log_q0)
        _check_inner_gibbs(state, data, hp, cid, seed)
    assert blocks or kind == "p1"  # one component leaves no room for a block


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


# -- birth proposals seated in lockstep ---------------------------------------

LOCKSTEP_KINDS = ("dense", "live", "mixed", "spike")
# The mixed kind's components where the even rows' residuals are large.
MIXED_LEAD = 20


def _lockstep_pass(kind, seed):
    """(state, hp, bd): a ``BirthDeathPass`` of 8 rows whose walks take the
    lockstep's paths. dense: 40 slab-favouring components, many inner
    clusters, so several rows leave SPIKE at most components and the steps
    weigh one component; live: the live kind's 300 components on every row,
    so rows leave SPIKE at the two live components, with members seated,
    and sit on SPIKE in long shared blocks around them; mixed: 120
    SPIKE-favouring components but component 0, where the odd rows'
    residuals are near 0, while the even rows' large residuals on components
    0-19 seat several of them, so one-component steps and shared blocks
    alternate there; spike: 300 SPIKE-favouring components, so most rows
    never leave SPIKE; full: the dense kind's rows at 64 components with
    attr_prob near 1, but the even rows' residuals so far from 0 that they
    leave SPIKE at every component, so their member totals reach p."""
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


def _reference_births_and_deaths(state, data, rng, bd):
    """The per-sample pass: one (n, p + 1) uniform matrix, then a birth move
    per non-singleton and a death move per singleton, in sample order, move
    i reading row i, with none seated ahead and no row skipped but those
    the pass's screen marks (``screened_births``, among the samples that
    start as non-singletons), whose births reject whatever their walks draw
    (``test_screened_rows_reject_when_walked``). Returns per sample (move,
    whether its proposal seated a component off SPIKE, accepted); a
    screened row's is ("screened", None, False)."""
    propose = bd.propose
    left_spike = []

    def recording(i, u, rng):
        mean, log_q, log_q0 = propose(i, u, rng)
        left_spike.append(mean.inner.n_clusters() > 0)
        return mean, log_q, log_q0

    bd.propose = recording
    u = rng.random((data.n, data.p + 1))
    samples = state.samples
    screened = ((samples.counts[samples.labels] > 1)
                & bd.screened_births(state, u, bd.own_loglik(state))).tolist()
    events = []
    for i in range(data.n):
        if state.samples.cluster_size(i) > 1:
            if screened[i]:
                events.append(("screened", None, False))
                continue
            accepted, _log_ratio = clusters.mh_birth_move(state, i, rng, bd, u[i])
            events.append(("birth", left_spike[-1], accepted))
        else:
            accepted, _log_ratio = clusters.mh_death_move(state, i, bd, u[i])
            events.append(("death", False, accepted))
    return events


def _propose_by_reference_walk(bd, state, hp):
    """Make the pass ``bd`` draw each birth proposal by ``_reference_walk``
    on the sample's row: the per-sample reference pass's births."""

    def propose(i, u, rng):
        mean = ClusterMeanVector(bd.x.shape[1])
        return (mean, *_reference_walk(mean.inner, bd.x[i], 1, bd.sigma_sq, state, hp, u, rng))

    bd.propose = propose
    return bd


def _record_lockstep_rows(monkeypatch):
    """Record the rows every pass seats in lockstep."""
    seated = []
    lockstep = clusters._lockstep_seats

    def recorded(terms, rows, u):
        seated.extend(rows.tolist())
        return lockstep(terms, rows, u)

    monkeypatch.setattr(clusters, "_lockstep_seats", recorded)
    return seated


@pytest.mark.parametrize("kind, bit_generator", [
    pytest.param(kind, name, id=kind if name == "PCG64" else f"{kind}-{name}")
    for name in BIT_GENERATORS for kind in LOCKSTEP_KINDS + ("full",)
])
def test_lockstep_matches_reference_walk(kind, bit_generator):
    """Every row of a pass seated in lockstep, then proposed in sample
    order, draws the seats and values the reference walk draws from the same
    uniforms, leaves the generator where it leaves it, and agrees on log Q
    and log Q0 to rounding with it and with the scalar walk's replay. The
    full kind reads the lockstep's by-count tables up to member total p."""
    seen = dict.fromkeys(("3+ inner clusters", "never off SPIKE", "member total p"), 0)
    for seed in range(8):
        state, hp, bd = _lockstep_pass(kind, seed)
        n, p = bd.x.shape
        rng, ref_rng = (np.random.Generator(getattr(np.random, bit_generator)(seed))
                        for _ in range(2))
        u = rng.random((n, p + 1))
        ref_rng.random((n, p + 1))
        bd.seat_births(np.arange(n), u)
        assert sorted(bd._seated) == list(range(n))
        for i in range(n):
            mean, log_q, log_q0 = bd.propose(i, u[i], rng)
            ref = ClusterMeanVector(p)
            ref_q, ref_q0 = _reference_walk(ref.inner, bd.x[i], 1, bd.sigma_sq, state, hp,
                                            u[i], ref_rng)
            assert mean.inner.to_dict() == ref.inner.to_dict(), (seed, i)
            assert log_q == pytest.approx(ref_q, rel=REL)
            assert log_q0 == pytest.approx(ref_q0, rel=REL)
            rep_q, rep_q0 = _scan_components(mean.inner, bd, i)
            assert log_q == pytest.approx(rep_q, rel=REL)
            assert log_q0 == pytest.approx(rep_q0, rel=REL)
            seen["3+ inner clusters"] += mean.inner_cluster_count() >= 3
            seen["never off SPIKE"] += mean.nonzero_count() == 0
            seen["member total p"] += mean.nonzero_count() == p
        # Equal next draws: the two generators stand at the same position.
        assert rng.random(4).tolist() == ref_rng.random(4).tolist(), seed
    if kind in ("dense", "spike"):
        assert seen["3+ inner clusters" if kind == "dense" else "never off SPIKE"], seen
    if kind == "full":
        assert seen["member total p"], seen


@pytest.mark.parametrize("kind", LOCKSTEP_KINDS)
def test_lockstep_blocks_match_one_component_steps(kind, monkeypatch):
    """With ``_BLOCK_CELLS`` at 1 every lockstep step weighs one component.
    That pass gives every row the seats, counts and posterior of the default
    pass, whose shared blocks weigh many components at once, bit for bit,
    and log Q and log Q0 to rounding. Every kind but dense has components
    that all rows seat on SPIKE, two in a row, where the default pass weighs
    a shared block; dense has components that several rows leave SPIKE at,
    where it weighs one."""
    runs = 0
    for seed in range(8):
        state, hp, bd = _lockstep_pass(kind, seed)
        n, p = bd.x.shape
        u = np.random.default_rng(seed).random((n, p + 1))
        blocked = clusters._lockstep_seats(bd, np.arange(n), u)
        monkeypatch.setattr(clusters, "_BLOCK_CELLS", 1)
        stepped = clusters._lockstep_seats(bd, np.arange(n), u)
        monkeypatch.undo()
        for i in range(n):
            seats, counts, log_q, log_q0, post = blocked[i]
            assert seats.tolist() == stepped[i][0].tolist(), (seed, i)
            assert counts == stepped[i][1], (seed, i)
            assert [a.tolist() for a in post] == [a.tolist() for a in stepped[i][4]], (seed, i)
            assert log_q == pytest.approx(stepped[i][2], rel=REL)
            assert log_q0 == pytest.approx(stepped[i][3], rel=REL)
        leaving = (np.array([blocked[i][0] for i in range(n)]) >= 0).sum(axis=0)
        runs += (((leaving[:-1] == 0) & (leaving[1:] == 0)).any() if kind != "dense"
                 else (leaving > 1).any())
    assert runs


@pytest.mark.parametrize("bad, message", [
    (np.inf, "all log weights are -inf"), (np.nan, r"non-finite log weights \[nan")],
    ids=["inf", "nan"])
def test_lockstep_leaves_a_non_finite_row_to_the_scalar_walk(bad, message, monkeypatch):
    """A row holding a non-finite residual is not seated with the others;
    its birth move leaves it to the scalar walk, which aborts with the
    message of the per-sample reference pass (births drawn by
    ``_reference_walk``), naming the sample, after the same moves before it,
    leaving the state and the generator where the reference pass does."""
    bad_row, n, p = 5, 8, 6
    y = np.random.default_rng(2).normal(0.0, 1.5, size=(n, p))
    sides = []
    for reference in (False, True):
        state, data, hp = manual_state(y.copy(), sigma_sq=[0.5] * p, attr_prob=0.5)
        data.y[bad_row, 3] = bad  # past DataMatrix's check
        seated = _record_lockstep_rows(monkeypatch)
        rng = np.random.default_rng(3)
        bd = BirthDeathPass(data.y, state.mean_part.values_vector(),
                            state.var_part.values_vector(), state, hp)
        with pytest.raises(SamplerAbort, match=message) as abort:
            if reference:
                _reference_births_and_deaths(state, data, rng, _propose_by_reference_walk(
                    bd, state, hp))
            else:
                clusters._births_and_deaths(state, rng, bd)
        monkeypatch.undo()
        sides.append((str(abort.value), state.to_dict(), rng.random(4).tolist(), seated))
    (message_lock, state_lock, next_lock, seated), (message_ref, *ref, ref_seated) = sides
    assert message_lock == message_ref
    assert message_lock.startswith(f"birth proposal i={bad_row}: ")
    assert [state_lock, next_lock] == ref
    assert seated == [i for i in range(n) if i != bad_row]
    assert not ref_seated


# Bits of ``_lockstep_seats`` on each lockstep kind's passes of seeds 0-2,
# row i reading row i of ``default_rng(seed).random((n, p + 1))``: per seed,
# the first 16 hex digits of the SHA-256 over every row's seats (int64) and
# the ``float.hex`` of its log Q and log Q0 (``_lockstep_digest``). A shared
# block sums the log Q and log Q0 of its SPIKE seats by one reduction, so
# the pins hold where the blocks fall as well as each step's arithmetic;
# the dense kind's passes weigh no block with SPIKE seats. numpy's exp and
# log differ in the last bit between SIMD targets, so the pins are keyed by
# a probe of both (``_exp_log_probe``).
LOCKSTEP_PINS = {
    # x86-64 with numpy's AVX-512 (X86_V4) exp and log
    "4117a7b1b2889523": {
        "dense": ["81cf79b2b064359a", "0555dfbfbfd1bcc0", "bf04012156e5fb6f"],
        "live": ["30e8de3c34ea2c6b", "517d28bc45554ece", "5061acf071e78a0e"],
        "mixed": ["aab8f61322385ee2", "a6f65ef1311ac4ba", "c07b3fbf7dd22a66"],
        "spike": ["16d7774f5c38da48", "c1ec48f4fb364495", "3c7601c7355e4cca"],
    },
    # x86-64 with those kernels disabled (or absent): the C library's exp and log
    "6469758e9361ab7d": {
        "dense": ["81cf79b2b064359a", "0555dfbfbfd1bcc0", "bf04012156e5fb6f"],
        "live": ["30e8de3c34ea2c6b", "517d28bc45554ece", "5061acf071e78a0e"],
        "mixed": ["aab8f61322385ee2", "09373e25ae84a90f", "c07b3fbf7dd22a66"],
        "spike": ["16d7774f5c38da48", "c1ec48f4fb364495", "3c7601c7355e4cca"],
    },
}


def _exp_log_probe():
    """The first 16 hex digits of the SHA-256 over numpy's exp and log of a
    fixed grid: which exp and log this platform's numpy computes."""
    x = np.linspace(-40.0, 40.0, 4001)
    return hashlib.sha256(np.exp(x).tobytes() + np.log(np.abs(x) + 0.5).tobytes()).hexdigest()[:16]


def _lockstep_digest(kind, seed):
    state, hp, bd = _lockstep_pass(kind, seed)
    n, p = bd.x.shape
    u = np.random.default_rng(seed).random((n, p + 1))
    seated = clusters._lockstep_seats(bd, np.arange(n), u)
    h = hashlib.sha256()
    for i in range(n):
        seats, _counts, log_q, log_q0 = seated[i][:4]
        h.update(np.asarray(seats, dtype=np.int64).tobytes())
        h.update(f"{float(log_q).hex()} {float(log_q0).hex()};".encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("kind", LOCKSTEP_KINDS)
def test_lockstep_seats_match_pinned_bits(kind):
    """The lockstep's seats, log Q and log Q0 of every row equal, bit for
    bit, those pinned for this platform's exp and log. The reference-walk test allows rounding (REL); this pin
    does not. A platform whose numpy exp and log match neither recorded
    probe has no pin to compare with."""
    pins = LOCKSTEP_PINS.get(_exp_log_probe())
    if pins is None:
        pytest.skip(f"no lockstep pin for this numpy's exp and log (probe {_exp_log_probe()})")
    assert [_lockstep_digest(kind, seed) for seed in range(3)] == pins[kind]


def _scalar_tail(bd, seated, i, rng):
    """(mean, log Q, log Q0) of row i seated in lockstep as ``seated``
    (``seat_births``' entry for it), its values drawn by the reference walk's
    scalar tail (``_reference_values``), one ``standard_normal()`` per inner
    cluster."""
    seats, counts, log_q, log_q0 = seated[:4]
    mean = ClusterMeanVector(len(seats))
    if counts:
        values, log_q, log_q0 = _reference_values(
            seats.tolist(), len(counts), bd.x[i].tolist(), bd.prec.tolist(), bd.slab_var,
            log_q, log_q0, rng)
        mean.inner.set_slots([None] * len(counts), seats, counts, values)
    return mean, log_q, log_q0


def _proposal_bits(bd, i, proposal):
    """A proposal's partition, values, log Q, log Q0 and log likelihood of
    row i, floats as ``float.hex``."""
    mean, log_q, log_q0 = proposal
    inner = mean.inner.to_dict()
    inner["values"] = [v.hex() for v in inner["values"]]
    return inner, log_q.hex(), log_q0.hex(), bd.loglik(i, mean).hex()


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_lockstep_value_tail_matches_scalar_tail(bit_generator):
    """A row seated in lockstep draws its k values with one
    ``standard_normal(k)`` from the posterior ``seat_births`` computed for
    the pass: its values, log Q, log Q0 and log likelihood equal, bit for
    bit, those of the reference walk's scalar tail with
    ``BirthDeathPass.loglik``, and the generator stands where k scalar draws
    leave it, after every row."""
    drew = 0
    for kind in LOCKSTEP_KINDS:
        for seed in range(4):
            state, hp, bd = _lockstep_pass(kind, seed)
            n, p = bd.x.shape
            u = np.random.default_rng(seed).random((n, p + 1))
            bd.seat_births(np.arange(n), u)
            seated = dict(bd._seated)
            rng, ref_rng = (np.random.Generator(getattr(np.random, bit_generator)(seed))
                            for _ in range(2))
            for i in range(n):
                got = _proposal_bits(bd, i, bd.propose(i, u[i], rng))
                assert got == _proposal_bits(bd, i, _scalar_tail(bd, seated[i], i, ref_rng)), \
                    (kind, seed, i)
                assert rng.random() == ref_rng.random(), (kind, seed, i)
                drew += len(seated[i][1]) > 0
    assert drew


def test_value_tail_takes_math_log_of_the_posterior_variance():
    """The value tail's log Q equals ``log_normal_pdf``'s, bit for bit, at
    posterior variances where numpy's log differs from math's in the last
    bit (as numpy's AVX-512 log does on about 0.05% of values): member
    precision sums from a fixed grid, each value at its posterior mean so
    that log(2 pi variance) alone makes log Q. A platform whose numpy log
    agrees with math's on the whole grid has nothing to check."""
    slab_var = 1.0
    prec_sums = np.linspace(1.0, 1000.0, 100001)
    var = 1.0 / (prec_sums + 1.0 / slab_var)  # ``_posterior``'s arithmetic
    math_log = np.array([LOG_2PI + math.log(v) for v in var.tolist()])
    differ = np.flatnonzero(LOG_2PI + np.log(var) != math_log)
    if not differ.size:
        pytest.skip("numpy's log equals math's on every grid variance")
    for prec_sum, v in zip(prec_sums[differ].tolist(), var[differ].tolist()):
        post = clusters._posterior(np.array([prec_sum]), np.array([0.5 * prec_sum]), slab_var)
        mean = post[0]
        _values, log_q, _log_q0 = clusters._values(post, slab_var, 0.0, 0.0, values=mean)
        expected = 0.0 + log_normal_pdf(mean.item(), mean.item(), v)
        assert log_q.hex() == expected.hex(), prec_sum


# -- the block routine ----------------------------------------------------------


def _block_inputs(seed, k, replay):
    """Terms of 6 rows and 30 components, each row's slot terms (k slots;
    slot 0 emptied, at log count -inf, on rows 0 and 3, and a row with fewer
    slots than k weighing -inf at the rest), CRP log denominators, and
    uniforms or seats (SPIKE, a slot or a new cluster)."""
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
    if replay:
        seats = np.where(rng.random((rows, p)) < 0.85, SPIKE, rng.integers(0, k + 1, size=(rows, p)))
        return terms, slots if k else None, log_denom, None, seats
    return terms, slots if k else None, log_denom, rng.random((rows, p)) ** 3, None


def _block_oracle(terms, r, j, end, slots, log_denom, u, seats):
    """Row r's block by the scalar step's sums in numpy, with numpy's
    accumulate for the running sums: (stays, stop, at), where at(c) gives
    the seat at component c, every seat's log probability there, and the
    log Q of the SPIKE seats before it."""
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
    lse = top + np.log(acc[-1])
    if seats is None:
        stays = u[r, j:end] * acc[-1] <= acc[0]
    else:
        stays = (seats[r, j:end] == SPIKE) & np.isfinite(acc[-1])
    stop = int(np.argmin(stays)) if not stays.all() else end - j

    def at(c):
        log_q = float(np.add.reduce(w[0, :c] - lse[:c]))
        if c == end - j:
            return None, None, log_q
        choice = (int(np.searchsorted(acc[:, c], u[r, j + c] * acc[-1, c])) if seats is None
                  else 1 + int(seats[r, j + c]))
        return choice, (w[:, c] - lse[c]).tolist(), log_q

    return stays, stop, at


@pytest.mark.parametrize("replay", [False, True], ids=["draw", "replay"])
@pytest.mark.parametrize("k", range(4))
def test_block_of_stacked_rows_matches_each_row_alone(k, replay):
    """``_block`` over a stack of rows gives every row, bit for bit, what it
    gives that row alone, and both what the scalar step's sums with numpy's
    accumulate give: where the row stays on SPIKE, its stop, its seat there
    with every seat's log probability, and the log Q of its SPIKE seats
    before it. A stack stops at its first row's stop, where the rows that
    stop later sit on SPIKE; the stack of those rows reaches the next stop.
    A one-component block seats every row at its component. Blocks of 1, 7
    and 30 components, drawing and replaying, 0-3 slots, an emptied slot
    and rows with fewer slots than the rest."""
    seen = dict.fromkeys(("row leaves SPIKE", "row stays through", "stack of several"), 0)
    for seed in range(12):
        terms, slots, log_denom, u, seats = _block_inputs(100 * k + seed, k, replay)
        for j, end in ((4, 5), (11, 18), (0, 30)):
            width, alone = end - j, {}
            for r in range(6):
                got = clusters._block(
                    terms, slice(r, r + 1), j, end, log_denom.item(r),
                    None if slots is None else tuple(a[:, r:r + 1] for a in slots),
                    None if u is None else u[r:r + 1], None if seats is None else seats[r:r + 1])
                stays, c, choice, seat_q, spike_q = got
                want_stays, stop, at = _block_oracle(terms, r, j, end, slots, log_denom, u, seats)
                assert stays[0].tolist() == want_stays.tolist(), (seed, j, r)
                assert c == (0 if width == 1 else stop), (seed, j, r)
                want_choice, want_seat_q, want_log_q = at(c)
                assert float(np.add.reduce(spike_q[0, :c])) == want_log_q, (seed, j, r)
                if c < width:
                    assert (choice.item(), seat_q[:, 0].tolist()) == (want_choice, want_seat_q)
                else:
                    assert choice is seat_q is None
                alone[r] = got
                seen["row leaves SPIKE" if stop < width else "row stays through"] += 1
            remaining = list(range(6))
            while remaining:
                sub = SimpleNamespace(spike=terms.spike[remaining], new=terms.new[remaining],
                                      x=terms.x[remaining], log_s=terms.log_s, v_obs=terms.v_obs)
                stays, c, choice, seat_q, spike_q = clusters._block(
                    sub, slice(None), j, end, log_denom[remaining],
                    None if slots is None else tuple(a[:, remaining] for a in slots),
                    None if u is None else u[remaining], None if seats is None else seats[remaining])
                seen["stack of several"] += len(remaining) > 1
                seated = []
                for s, r in enumerate(remaining):
                    one_stays, one_c, one_choice, one_seat_q, one_spike_q = alone[r]
                    assert stays[s].tolist() == one_stays[0].tolist(), (seed, j, r)
                    assert spike_q[s].tolist() == one_spike_q[0].tolist(), (seed, j, r)
                    if one_c == c:  # the stack stops at the row's own stop
                        if c < width:
                            assert choice[s] == one_choice[0], (seed, j, r)
                            assert seat_q[:, s].tolist() == one_seat_q[:, 0].tolist(), (seed, j, r)
                        seated.append(r)
                    else:  # the row sits on SPIKE at the stack's stop
                        assert c < one_c and choice[s] == 0, (seed, j, r)
                remaining = [r for r in remaining if r not in seated]
    assert all(seen.values()), seen
