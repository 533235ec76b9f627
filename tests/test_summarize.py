import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from sparseclust.chain import ChainTrace
from sparseclust.model import Hyperparams
from sparseclust.simulate import SimTruth
from sparseclust.summarize import (
    _min_cost_assignment,
    coclustering,
    fitted_mean_posterior,
    inclusion_posterior_mean,
    k_posterior,
    mse_fitted_means,
    relabel_conditional_on_K,
    select_attributes,
)


def _trace_from(entries, n, p):
    """Build a ChainTrace from (assignments, means, rho, baseline) tuples."""
    tr = ChainTrace(n, p)
    for assid, means, rho, base in entries:
        tr.ks.append(means.shape[0])
        tr.assignments.append(np.asarray(assid, dtype=np.int16))
        tr.means.append(np.asarray(means, dtype=float))
        tr.rhos.append(np.asarray(rho, dtype=float))
        tr.baselines.append(np.asarray(base, dtype=float))
    return tr


def _permuted_entry(entry, perm):
    assid, means, rho, base = entry
    inv = np.argsort(perm)
    return (inv[assid], means[perm], rho, base)


@pytest.fixture
def two_cluster_trace():
    n, p = 4, 3
    base = np.zeros(p)
    rho = np.full(p, 0.5)
    means = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.5]])
    assid = np.array([0, 0, 1, 1])
    entries = [(assid, means, rho, base)]
    rng = np.random.default_rng(0)
    for _ in range(9):
        perm = rng.permutation(2)
        entries.append(_permuted_entry(entries[0], perm))
    return _trace_from(entries, n, p)


def test_k_posterior_constant():
    tr = _trace_from(
        [(np.zeros(3, int), np.zeros((4, 2)), np.zeros(2), np.zeros(2))] * 5,
        3, 2,
    )
    hist, mode = k_posterior(tr)
    assert mode == 4 and hist[4] == 1.0


def test_k_posterior_tie_breaks_low():
    n, p = 3, 2
    e_small = (np.zeros(n, int), np.zeros((2, p)), np.zeros(p), np.zeros(p))
    e_big = (np.zeros(n, int), np.zeros((5, p)), np.zeros(p), np.zeros(p))
    tr = _trace_from([e_big, e_small], n, p)
    _, mode = k_posterior(tr)
    assert mode == 2


def test_k_posterior_empty_trace_errors():
    tr = ChainTrace(3, 2)
    with pytest.raises(ValueError):
        k_posterior(tr)


def test_relabel_recovers_permutations(two_cluster_trace):
    mu, membership, used = relabel_conditional_on_K(two_cluster_trace, 2)
    assert len(used) == 10
    # every iteration aligns exactly to the first one
    for t in range(10):
        np.testing.assert_array_equal(mu[t], mu[0])
    assert set(np.unique(membership)) == {0.0, 1.0}


def test_relabel_alignment_invariant_under_relabeling(two_cluster_trace):
    mu_a, mem_a, _ = relabel_conditional_on_K(two_cluster_trace, 2)
    # inject a fixed permutation into every iteration
    tr = two_cluster_trace
    perm = np.array([1, 0])
    entries = [
        _permuted_entry((tr.assignments[t], tr.means[t], tr.rhos[t], tr.baselines[t]),
                        perm)
        for t in range(len(tr))
    ]
    tr2 = _trace_from(entries, tr.n, tr.p)
    mu_b, mem_b, _ = relabel_conditional_on_K(tr2, 2)
    # aligned summaries agree up to one global permutation; costs are equal
    got = {tuple(np.round(mu_b.mean(axis=0)[k], 9)) for k in range(2)}
    want = {tuple(np.round(mu_a.mean(axis=0)[k], 9)) for k in range(2)}
    assert got == want


def test_relabel_missing_k_errors(two_cluster_trace):
    with pytest.raises(ValueError):
        relabel_conditional_on_K(two_cluster_trace, 5)


def _scipy_permutation(cost):
    rows, cols = linear_sum_assignment(cost)
    assert rows.tolist() == list(range(len(cost)))
    return cols.tolist()


def test_min_cost_assignment_returns_scipys_permutation():
    """The in-package solver returns scipy's permutation, not only an
    assignment of equal cost, so relabelled summaries keep their bytes.
    Small-integer entries make most matrices tie-heavy; the all-zero matrix
    ties everywhere and gives the identity."""
    rng = np.random.default_rng(20160601)
    for k in range(1, 9):
        for cost in rng.integers(0, 4, (1250, k, k)).astype(float):
            assert _min_cost_assignment(cost) == _scipy_permutation(cost), cost
        for cost in rng.random((625, k, k)):
            assert _min_cost_assignment(cost) == _scipy_permutation(cost), cost
        zero = np.zeros((k, k))
        assert _min_cost_assignment(zero) == _scipy_permutation(zero) == list(range(k))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_min_cost_assignment_rejects_non_finite_costs(bad):
    """A non-finite cost anywhere raises ValueError; scipy raises on the
    same value in every cell (an all +inf matrix has no feasible
    assignment)."""
    cost = np.arange(9.0).reshape(3, 3)
    cost[1, 2] = bad
    with pytest.raises(ValueError):
        _min_cost_assignment(cost)
    with pytest.raises(ValueError):
        _min_cost_assignment(np.full((3, 3), bad))
    with pytest.raises(ValueError):
        linear_sum_assignment(np.full((3, 3), bad))


def test_inclusion_posterior_mean_is_the_closed_form():
    """Per iteration, E[pi | mu, rho] is (a + 1)/(a + b + 1) at a nonzero
    mean component and (1 - w0(rho)) a/(a + b + 1) at a zero one; the
    estimate averages it over the aligned iterations, and select_attributes
    reads the result. Slab Beta(3, 1), rho 0.5 and then 0.2."""
    hp = Hyperparams(base_mean=0.0, base_var=1.0, slab_a=3.0, slab_b=1.0)
    n, p = 4, 3
    base = np.zeros(p)
    assid = np.array([0, 0, 1, 1])
    first = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.5]])
    second = np.array([[0.8, 0.0, 0.2], [-1.2, 0.0, 0.0]])
    tr = _trace_from([(assid, first, np.full(p, 0.5), base),
                      (assid, second, np.full(p, 0.2), base)], n, p)
    mu, _membership, used = relabel_conditional_on_K(tr, 2)
    got = inclusion_posterior_mean(mu, [tr.rhos[t] for t in used], hp)

    on = 4.0 / 5.0  # (a + 1)/(a + b + 1)
    # w0 = (1 - rho) / (1 - rho + rho b/(a + b)): 0.5 -> 4/5, 0.2 -> 16/17
    off = {0.5: (1.0 - 4.0 / 5.0) * 3.0 / 5.0, 0.2: (1.0 - 16.0 / 17.0) * 3.0 / 5.0}
    want = np.array([
        [on, off[0.5] / 2 + off[0.2] / 2, off[0.5] / 2 + on / 2],
        [on, off[0.5] / 2 + off[0.2] / 2, on / 2 + off[0.2] / 2],
    ])
    np.testing.assert_allclose(got, want, rtol=1e-14)
    assert select_attributes(got, 0.45) == {1, 3}  # attribute 3 via cluster 1 only
    assert select_attributes(got, 0.5) == {1}


def test_select_attributes_thresholds():
    pi_mean = np.array([[0.9, 0.0, 0.3], [0.2, 0.1, 0.7]])
    assert select_attributes(pi_mean, 0.5) == {1, 3}
    assert select_attributes(pi_mean, 0.65) == {1, 3}
    assert select_attributes(pi_mean, 0.85) == {1}
    assert select_attributes(np.zeros((2, 3)), 0.5) == set()
    with pytest.raises(ValueError):
        select_attributes(pi_mean, 1.0)


def test_select_attributes_monotone_in_threshold():
    rng = np.random.default_rng(1)
    pi_mean = rng.random((4, 20))
    prev = None
    for th in (0.2, 0.4, 0.6, 0.8):
        cur = select_attributes(pi_mean, th)
        if prev is not None:
            assert cur <= prev
        prev = cur


def test_mse_zero_when_exact(two_cluster_trace):
    tr = two_cluster_trace
    est = fitted_mean_posterior(tr, k=2)
    truth = SimTruth(mu=est.copy(), sigma=np.ones(tr.p), labels=np.zeros(tr.n, int),
                     relevant=set(range(1, tr.p + 1)))
    assert mse_fitted_means(tr, truth) == pytest.approx(0.0, abs=1e-15)
    truth.mu[0, 0] += 0.5
    got = mse_fitted_means(tr, truth, restrict={1})
    assert got == pytest.approx(0.25 / tr.n, rel=1e-12)


@pytest.mark.parametrize("restrict", [set(), {0}, {1, 0}, {4}, {2, 4}],
                         ids=["empty", "zero", "zero-and-one", "p+1", "two-and-p+1"])
def test_mse_rejects_attributes_outside_1_to_p(two_cluster_trace, restrict):
    """An empty set, attribute 0 (which index -1 would read as attribute p)
    and attribute p + 1 are each refused, not scored."""
    tr = two_cluster_trace
    truth = SimTruth(mu=np.zeros((tr.n, tr.p)), sigma=np.ones(tr.p),
                     labels=np.zeros(tr.n, int), relevant=set())
    with pytest.raises(ValueError, match=r"attributes in 1\.\.3"):
        mse_fitted_means(tr, truth, restrict=restrict)
    assert mse_fitted_means(tr, truth, restrict={1, 3}) >= 0.0


def test_coclustering_block_structure(two_cluster_trace):
    m = coclustering(two_cluster_trace)
    np.testing.assert_array_equal(m, m.T)
    np.testing.assert_array_equal(np.diag(m), np.ones(4))
    assert m[0, 1] == 1.0 and m[2, 3] == 1.0
    assert m[0, 2] == 0.0 and m[1, 3] == 0.0


def test_coclustering_invariant_to_label_permutation(two_cluster_trace):
    tr = two_cluster_trace
    perm = np.array([1, 0])
    entries = [
        _permuted_entry((tr.assignments[t], tr.means[t], tr.rhos[t], tr.baselines[t]),
                        perm)
        for t in range(len(tr))
    ]
    tr2 = _trace_from(entries, tr.n, tr.p)
    np.testing.assert_array_equal(coclustering(tr), coclustering(tr2))
