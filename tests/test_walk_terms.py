"""The birth/death pass object against the per-walk terms it replaces.

``step_clusters`` builds one ``BirthDeathPass`` for all samples; the inner
Gibbs pass builds one-row ``WalkTerms``.
Row i of the pass must be bitwise the one-row terms of y_i - mu_base, and
its log likelihood, read per sample or from a cluster's column, bitwise the
row expression ``_loglik_dense``, or a sample's move would depend on which
form it reads.
"""

import numpy as np
import pytest

from sparseclust.clusters import (
    BirthDeathPass,
    ClusterMeanVector,
    WalkTerms,
    _scan_components,
    _seated_log_w,
)
from sparseclust.densities import SamplerAbort

from conftest import build_partition, make_state
from test_component_walk import _record_live_blocks, _starts_block, _walk_from_spike

ROW_ARRAYS = ("x", "spike", "new")
CASES = [(n, p, seed) for seed in range(6) for n, p in ((5, 7), (3, 40))]


def _loglik_dense(y_row, mu_vec, mu_base, sigma_sq):
    """Sample i's log likelihood from its own row, the reference value."""
    d = y_row - mu_base - mu_vec
    return float(-0.5 * (np.log(2.0 * np.pi * sigma_sq) + d * d / sigma_sq).sum())


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.view(np.uint8) if a.dtype == bool else a.view(np.uint64)


def _pass(state, data, hp):
    mu_base = state.mean_part.values_vector()
    sigma_sq = state.var_part.values_vector()
    return BirthDeathPass(data.y, mu_base, sigma_sq, state, hp), mu_base, sigma_sq


def _dense_mean(p, rng):
    """Every component nonzero, in two inner clusters."""
    groups = [list(range(r, p, 2)) for r in (0, 1)]
    return ClusterMeanVector(p, build_partition(groups, rng.normal(0.0, 1.0, size=2), p))


@pytest.mark.parametrize("n, p, seed", CASES)
def test_pass_rows_equal_one_row_terms(n, p, seed):
    state, data, hp = make_state(n=n, p=p, seed=seed)
    if seed % 2:
        state.attr_prob[:] = 1e-3  # rows that start blocks with no member seated
    bd, mu_base, sigma_sq = _pass(state, data, hp)
    bd.screened_births(state, np.random.default_rng(seed).random((n, p + 1)),
                       bd.own_loglik(state))
    for i in range(n):
        one = WalkTerms(data.y[i] - mu_base, 1, sigma_sq, state, hp)
        for name in ROW_ARRAYS:
            np.testing.assert_array_equal(
                _bits(getattr(bd, name)[i]), _bits(getattr(one, name)[0]), err_msg=name)
        # The walks read nothing else, so their draws and scores agree too.
        rng, one_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        u, one_u = rng.random(p), one_rng.random(p)
        (mean, log_w), (one_mean, one_log_w) = (_walk_from_spike(bd, i, u, rng),
                                                _walk_from_spike(one, 0, one_u, one_rng))
        assert mean.inner.to_dict() == one_mean.inner.to_dict()
        assert log_w == one_log_w
        assert rng.bit_generator.state == one_rng.bit_generator.state
        assert _seated_log_w(bd, i, mean.inner) == _seated_log_w(one, 0, mean.inner)
        # The screen's bound on this row, from the pass's terms, holds.
        assert log_w < bd.rest[i, 0]


@pytest.mark.parametrize("n, p, seed", CASES)
def test_pass_loglik_equals_loglik_dense(n, p, seed):
    state, data, hp = make_state(n=n, p=p, seed=seed)
    bd, mu_base, sigma_sq = _pass(state, data, hp)
    rng = np.random.default_rng(seed)
    means = [ClusterMeanVector(p), _dense_mean(p, rng),
             *state.cluster_means.values()]
    for i in range(n):
        for mean in means:
            want = _loglik_dense(data.y[i], mean.mu(), mu_base, sigma_sq)
            assert bd.loglik(i, mean) == want
    # The marking of skipped births and the reassignment pass read cluster
    # columns, which must give the same bits.
    for cid, mean in state.cluster_means.items():
        column = bd.loglik_column(state, cid)
        assert column.tolist() == [bd.loglik(i, mean) for i in range(n)]
        assert bd.loglik_column(state, cid) is column  # once per pass


def test_all_spike_proposal_at_p_3000_is_one_block(monkeypatch):
    """A block with no member seated spans to p, with no cap on its cells:
    at p = 3000 the scalar walk from an all-SPIKE mean that stays on SPIKE
    is one block, so the stop is checked at component 0 and at p only. Its
    log W lies below the screen's bound, and a stop armed with a floor
    between the two stops the walk at p, at the end of that block, and
    nowhere before."""
    blocks = _record_live_blocks(monkeypatch)
    seen = 0
    for seed in range(40):
        state, data, hp = make_state(n=3, p=3000, seed=seed)
        state.attr_prob[:] = 1e-3
        bd = _pass(state, data, hp)[0]
        rng = np.random.default_rng(seed)
        bd.screened_births(state, np.full((3, 3001), 0.5), bd.own_loglik(state))
        for i in range(3):
            u = rng.random(3000)
            del blocks[:]
            mean, log_w = _walk_from_spike(bd, i, u, rng)
            if _starts_block(bd, i) and not mean.inner.n_clusters():
                seen += 1
                assert blocks == [(0, 3000, 3000, None)], (seed, i)
                bound = bd.rest[i, 0]
                assert log_w < bound, (seed, i)
                for floor, stops in ((log_w, True), ((log_w + bound) / 2, True),
                                     (bound, True), (np.nextafter(log_w, -np.inf), False)):
                    del blocks[:]
                    walk_rng = np.random.default_rng(seed)
                    stopped = _scan_components(ClusterMeanVector(3000).inner, bd, i, u, walk_rng,
                                               (bd.rest[i], float(floor)))
                    assert (stopped is None) == stops, (seed, i, floor)
                    # The floor at the bound stops the walk at component 0, before its block.
                    assert blocks == ([] if floor == bound else [(0, 3000, 3000, None)])
                    assert walk_rng.random() == np.random.default_rng(seed).random()
    assert seen >= 5


def test_non_finite_row_aborts_only_its_own_block_path(monkeypatch):
    """Rows 1 and 2 hold an infinity and a NaN at component 4 and start a
    block at component 0; row 3 holds an infinity there too but seats
    component 0 off SPIKE, so its walk reaches component 4 in scalar steps.
    Each walk aborts at component 4 through the scalar pick, with the
    message of a walk with its own one-row terms and before it draws
    anything; the blocks stop there. The pass's screen marks none of these
    rows and arms no stop of their walks (their floors are NaN), so each
    aborts from ``propose`` too. Row 0 is finite and walks as its one-row
    terms do."""
    p = 6
    state, data, hp = make_state(n=4, p=p, seed=4)
    state.attr_prob[:] = 1e-3
    state.attr_prob[0] = 0.9
    mu_base = state.mean_part.values_vector()
    sigma_sq = np.full(p, 0.01)
    x = np.random.default_rng(0).normal(0.0, 0.01, size=(4, p))
    x[[1, 3], 4] = np.inf
    x[2, 4] = np.nan
    x[3, 0] = 5.0
    bd = BirthDeathPass(x + mu_base, mu_base, sigma_sq, state, hp)  # does not raise
    # Not even an MH uniform just below 1 screens a non-finite row or arms a
    # stop of its walk.
    u_top = np.full((4, p + 1), np.nextafter(1.0, 0.0))
    assert not bd.screened_births(state, u_top, bd.own_loglik(state))[1:].any()
    assert np.isnan(bd.floor).tolist() == [False, True, True, True]
    assert [_starts_block(bd, i) for i in range(1, 4)] == [True, True, False]

    u = np.full(p, 1e-3)  # every SPIKE-favouring component stays on SPIKE
    rng, one_rng = np.random.default_rng(1), np.random.default_rng(1)
    mean, log_w = _walk_from_spike(bd, 0, u, rng)
    one_mean, one_log_w = _walk_from_spike(WalkTerms(x[0], 1, sigma_sq, state, hp), 0, u, one_rng)
    assert mean.inner.to_dict() == one_mean.inner.to_dict()
    assert log_w == one_log_w

    blocks = _record_live_blocks(monkeypatch)
    for i, message, walked in ((1, "all log weights are -inf", [(0, p, 4, None)]),
                               (2, r"non-finite log weights \[nan", [(0, p, 4, None)]),
                               (3, "all log weights are -inf", [])):
        one = WalkTerms(x[i], 1, sigma_sq, state, hp)
        for propose in (bd.propose, lambda _i, u, rng: _walk_from_spike(one, 0, u, rng)):
            del blocks[:]
            rng = np.random.default_rng(1)
            before = rng.bit_generator.state
            with pytest.raises(SamplerAbort, match=message):
                propose(i, u, rng)
            assert blocks == walked, i
            assert rng.bit_generator.state == before
