"""Deterministic generators for the four benchmark simulation designs and
one design of the leukemia data's shape.

Attribute and sample numbering in docstrings and in ``SimTruth.relevant``
is 1-based (as in the tables these designs come from); arrays are 0-based.
"""

from dataclasses import dataclass

import numpy as np

from .model import DataMatrix


@dataclass
class SimTruth:
    mu: np.ndarray  # n x p true means
    sigma: np.ndarray  # p true noise scales
    labels: np.ndarray  # true cluster id per sample
    relevant: set  # 1-based attribute indices with any nonzero mean


def _finish(mu, sigma, labels, seed):
    rng = np.random.default_rng(seed)  # a seed, or a Generator to go on with
    y = mu + sigma * rng.standard_normal(mu.shape)
    relevant = {int(j) + 1 for j in np.nonzero(np.any(mu != 0.0, axis=0))[0]}
    truth = SimTruth(mu=mu, sigma=sigma, labels=labels, relevant=relevant)
    return DataMatrix(y), truth


def _example1_design(seed, p):
    """Four groups of five samples; attributes 1-5 separate all four groups,
    6-10 only the first group, 11-15 only the fourth; the other p-15 are
    noise."""
    n = 20
    mu = np.zeros((n, p))
    mu[0:5, 0:5] = 0.25
    mu[5:10, 0:5] = 0.1
    mu[10:15, 0:5] = -0.1
    mu[15:20, 0:5] = -0.25
    mu[0:5, 5:10] = 0.2
    mu[15:20, 10:15] = -0.15
    sigma = np.full(p, 0.05)
    sigma[0:15] = 0.1
    labels = np.repeat(np.arange(4), 5)
    return _finish(mu, sigma, labels, seed)


def gen_example1(seed):
    """Example 1's design with p=200."""
    return _example1_design(seed, 200)


def gen_example2(seed):
    """Example 1's design with the noise attributes increased to p=1000."""
    return _example1_design(seed, 1000)


def gen_example3(seed):
    """Cluster sizes 3,3,7,7 with mean c/4 on the first 10 attributes."""
    n, p = 20, 50
    labels = np.repeat(np.arange(4), [3, 3, 7, 7])
    mu = np.zeros((n, p))
    for i in range(n):
        mu[i, 0:10] = (labels[i] + 1) / 4.0
    sigma = np.full(p, 0.1)
    return _finish(mu, sigma, labels, seed)


def gen_example4(seed):
    """Two groups of ten with fully graded means j/50 and (50-j)/50.

    Every attribute has a nonzero mean somewhere, so ``relevant`` is all 50
    even though attribute 25 carries the same mean in both groups and cannot
    discriminate them.
    """
    n, p = 20, 50
    mu = np.zeros((n, p))
    cols = np.arange(1, p + 1)
    mu[0:10] = cols / 50.0
    mu[10:20] = (50 - cols) / 50.0
    sigma = np.full(p, 0.1)
    labels = np.repeat(np.arange(2), 10)
    return _finish(mu, sigma, labels, seed)


def gen_golub_shape(seed):
    """A design of the shape of the leukemia data (Golub et al. 1999):
    72 samples in groups of 38, 9 and 25 (B-ALL, T-ALL, AML) and p=2000.
    Attributes 1-20 separate all three groups (means 0.5, 1.5, -1.0),
    21-35 only T-ALL (mean 1.2) and 36-50 only AML (mean -1.2); the other
    1950 are noise. Each attribute's noise sd is drawn from U(0.3, 1)."""
    n, p = 72, 2000
    labels = np.repeat(np.arange(3), [38, 9, 25])
    mu = np.zeros((n, p))
    mu[:, 0:20] = np.array([0.5, 1.5, -1.0])[labels, None]
    mu[labels == 1, 20:35] = 1.2
    mu[labels == 2, 35:50] = -1.2
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(0.3, 1.0, size=p)
    return _finish(mu, sigma, labels, rng)
