"""The birth/death pass object against the per-walk terms it replaces.

``step_clusters`` builds one ``BirthDeathPass`` for all samples; the inner
Gibbs pass and the public proposal functions build one-row ``WalkTerms``.
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
)
from sparseclust.densities import SamplerAbort

from conftest import build_partition, make_state

ROW_ARRAYS = ("x", "spike", "new", "starts_run", "run_spike", "run_tot",
              "run_lp_spike", "run_lp_new")
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
        state.attr_prob[:] = 1e-3  # rows that start spike runs
    bd, mu_base, sigma_sq = _pass(state, data, hp)
    for i in range(n):
        one = WalkTerms(data.y[i] - mu_base, 1, sigma_sq, state, hp)
        for name in ROW_ARRAYS:
            np.testing.assert_array_equal(
                _bits(getattr(bd, name)[i]), _bits(getattr(one, name)[0]), err_msg=name)
        assert bd.run_finite[i] == one.run_finite[0]
        assert bd.row_lists(i) == one.row_lists(0)
        # The walk reads nothing else, so proposals and replays agree too.
        rng, one_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        u, one_u = rng.random(p), one_rng.random(p)
        (mean, *logs), (one_mean, *one_logs) = (bd.propose(i, u, rng),
                                                one.propose(0, one_u, one_rng))
        assert mean.inner.to_dict() == one_mean.inner.to_dict()
        assert logs == one_logs
        assert rng.bit_generator.state == one_rng.bit_generator.state
        if bd.starts_run[i, 0] and bd.run_finite[i] and not mean.inner.n_clusters():
            # The pass marks a rejected proposal of this row from its sums.
            assert logs == [bd.spike_log_q[i], bd.spike_log_q0]


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


def test_non_finite_row_aborts_only_its_own_block_path():
    """Row 1's residuals hold an infinity, so its spike-run terms are not
    finite: its walk aborts when it takes the block path. Row 2 has the same
    infinity but seats component 0 off SPIKE and never takes the block path,
    so it aborts in the scalar draw instead, as a walk with its own terms
    does. Row 0 is finite and walks as its one-row terms do."""
    state, data, hp = make_state(n=3, p=6, seed=4)
    state.attr_prob[:] = 1e-3
    state.attr_prob[0] = 0.9
    mu_base = state.mean_part.values_vector()
    sigma_sq = np.full(6, 0.01)
    x = np.random.default_rng(0).normal(0.0, 0.01, size=(3, 6))
    x[1:, 4] = np.inf
    x[2, 0] = 5.0
    bd = BirthDeathPass(x + mu_base, mu_base, sigma_sq, state, hp)  # does not raise
    assert bd.run_finite == [True, False, False]
    assert bd.starts_run[1, 0] and not bd.starts_run[2, 0]

    rng, one_rng = np.random.default_rng(1), np.random.default_rng(1)
    u = np.random.default_rng(2).random(6)
    mean, *logs = bd.propose(0, u, rng)
    one_mean, *one_logs = WalkTerms(x[0], 1, sigma_sq, state, hp).propose(0, u, one_rng)
    assert mean.inner.to_dict() == one_mean.inner.to_dict()
    assert logs == one_logs

    with pytest.raises(SamplerAbort, match="spike run"):
        bd.propose(1, u, np.random.default_rng(1))
    for terms, i in ((bd, 2), (WalkTerms(x[2], 1, sigma_sq, state, hp), 0)):
        with pytest.raises(SamplerAbort, match="all log weights are -inf"):
            terms.propose(i, u, np.random.default_rng(1))
