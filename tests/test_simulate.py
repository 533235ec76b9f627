import numpy as np
import pytest

from sparseclust.simulate import (
    gen_example1, gen_example2, gen_example3, gen_example4, gen_golub_shape)


def test_example1_structure():
    data, truth = gen_example1(0)
    assert (data.n, data.p) == (20, 200)
    assert truth.relevant == set(range(1, 16))
    assert truth.labels.tolist() == [0] * 5 + [1] * 5 + [2] * 5 + [3] * 5
    assert truth.mu[0, 0] == 0.25 and truth.mu[7, 2] == 0.1
    assert truth.mu[12, 4] == -0.1 and truth.mu[19, 0] == -0.25
    assert truth.mu[3, 7] == 0.2 and truth.mu[16, 12] == -0.15
    assert truth.mu[0, 12] == 0.0 and truth.mu[10, 7] == 0.0
    assert np.all(truth.mu[:, 15:] == 0.0)
    assert np.all(truth.sigma[:15] == 0.1) and np.all(truth.sigma[15:] == 0.05)


def test_example1_seed_purity():
    a, _ = gen_example1(123)
    b, _ = gen_example1(123)
    c, _ = gen_example1(124)
    np.testing.assert_array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_example2_structure():
    data, truth = gen_example2(0)
    assert (data.n, data.p) == (20, 1000)
    assert truth.relevant == set(range(1, 16))
    assert np.all(truth.mu[:, 15:] == 0.0)


def test_example3_structure():
    data, truth = gen_example3(0)
    assert (data.n, data.p) == (20, 50)
    assert truth.relevant == set(range(1, 11))
    sizes = np.bincount(truth.labels)
    assert sizes.tolist() == [3, 3, 7, 7]
    vals = sorted(set(truth.mu[:, 0]))
    assert vals == [0.25, 0.5, 0.75, 1.0]
    assert np.all(truth.sigma == 0.1)


def test_example4_structure():
    data, truth = gen_example4(0)
    assert (data.n, data.p) == (20, 50)
    # every attribute carries a nonzero mean somewhere (attribute 25 is flat
    # across groups but nonzero, so the literal definition includes it)
    assert truth.relevant == set(range(1, 51))
    assert truth.mu[0, 49] == 1.0 and truth.mu[11, 49] == 0.0
    assert truth.mu[0, 24] == truth.mu[11, 24] == 0.5
    assert truth.labels.tolist() == [0] * 10 + [1] * 10


def test_golub_shape_structure():
    data, truth = gen_golub_shape(0)
    assert (data.n, data.p) == (72, 2000)
    assert np.bincount(truth.labels).tolist() == [38, 9, 25]
    assert truth.labels.tolist() == sorted(truth.labels.tolist())
    assert truth.relevant == set(range(1, 51))
    # Attributes 1-20 separate all three groups.
    group_means = np.array([truth.mu[truth.labels == g][0] for g in range(3)])
    assert group_means[:, :20].T.tolist() == [[0.5, 1.5, -1.0]] * 20
    # 21-35 separate only T-ALL, 36-50 only AML.
    assert group_means[:, 20:35].T.tolist() == [[0.0, 1.2, 0.0]] * 15
    assert group_means[:, 35:50].T.tolist() == [[0.0, 0.0, -1.2]] * 15
    assert np.all(truth.mu[:, 50:] == 0.0)
    # Every sample of a group shares its group's means.
    np.testing.assert_array_equal(truth.mu, group_means[truth.labels])
    assert truth.sigma.shape == (2000,)
    assert truth.sigma.min() >= 0.3 and truth.sigma.max() < 1.0
    assert truth.sigma.min() < 0.31 and truth.sigma.max() > 0.99  # spans U(0.3, 1)
    assert len(np.unique(truth.sigma)) == 2000


def test_golub_shape_seed_purity():
    np.random.seed(5)
    before = np.random.random()
    np.random.seed(5)
    a, ta = gen_golub_shape(123)
    assert np.random.random() == before  # the global generator is untouched
    b, tb = gen_golub_shape(123)
    c, tc = gen_golub_shape(124)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(ta.sigma, tb.sigma)
    assert not np.array_equal(a.y, c.y)
    assert not np.array_equal(ta.sigma, tc.sigma)
    np.testing.assert_array_equal(ta.mu, tc.mu)  # the design does not depend on the seed


def test_example1_column_means_converge():
    """Monte Carlo over replicate datasets: empirical column means approach
    the truth within 4 standard errors."""
    reps = 4000
    cols = [0, 7, 30]
    acc = np.zeros((reps, 20, len(cols)))
    for r in range(reps):
        data, truth = gen_example1(10_000 + r)
        acc[r] = data.y[:, cols]
    _, truth = gen_example1(0)
    want = truth.mu[:, cols]
    sd = truth.sigma[cols]
    se = sd / np.sqrt(reps)
    assert np.all(np.abs(acc.mean(axis=0) - want) < 4 * se + 1e-12)


def test_example3_column_sds_match():
    reps = 3000
    draws = np.empty(reps)
    for r in range(reps):
        data, truth = gen_example3(50_000 + r)
        draws[r] = data.y[3, 5]
    _, truth = gen_example3(0)
    sd = draws.std(ddof=1)
    se = truth.sigma[5] / np.sqrt(2 * (reps - 1))
    assert abs(sd - truth.sigma[5]) < 4 * se
