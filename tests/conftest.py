import numpy as np
import pytest

from sparseclust.clusters import ClusterMeanVector
from sparseclust.model import DataMatrix, Hyperparams, ModelState
from sparseclust.partition import SPIKE, Partition

from geweke import draw_data, draw_state_from_prior


def build_partition(groups, values=None, p=None):
    """The partition whose clusters, in creation order, are ``groups`` (lists
    of items) with ``values`` (default 0.0). With ``p`` it is the inner
    partition of a p-component mean, every component outside ``groups``
    SPIKE; without, ``groups`` must cover items 0..n-1."""
    n = sum(map(len, groups))
    labels = np.full(n if p is None else p, SPIKE)
    for t, group in enumerate(groups):
        labels[group] = t
    assert np.count_nonzero(labels >= 0) == n, "overlapping groups"
    return Partition(labels, [len(g) for g in groups],
                     [0.0] * len(groups) if values is None else values, p is not None)


def informative_hp():
    """Hyperparameters with informative sparsity, so that slab components
    actually occur in tests."""
    return Hyperparams(base_mean=0.0, base_var=1.0, rho_a=2.0, rho_b=2.0,
                       eta_shape=2.0, eta_rate=2.0)


def make_state(n=4, p=3, seed=0, hp=None, require_multi=False):
    """A consistent (state, data, hp) triple drawn from the prior.

    ``require_multi`` retries until there are at least two sample clusters
    with a non-singleton present (so every move type is applicable).
    """
    if hp is None:
        hp = informative_hp()
    rng = np.random.default_rng(seed)
    while True:
        state = draw_state_from_prior(n, p, hp, rng)
        y = draw_data(state, rng)
        if not require_multi:
            break
        sizes = state.samples.sizes()
        if len(sizes) >= 2 and max(sizes) >= 2:
            break
    return state, DataMatrix(y), hp


@pytest.fixture
def tiny_state():
    return make_state(n=4, p=3, seed=11, require_multi=True)


def manual_state(y, sigma_sq, mean_values=None, mean_groups=None, hp=None,
                 attr_prob=0.5, slab_var=1.0, concs=1.0):
    """Deterministic state: one sample cluster with an all-spike mean, so the
    step-1 residuals equal y itself; baselines fully controlled."""
    y = np.asarray(y, dtype=float)
    n, p = y.shape
    if hp is None:
        hp = Hyperparams(base_mean=0.0, base_var=1.0)
    if mean_values is None:
        mean_values = [0.0] * p
    if mean_groups is None:
        mean_groups = [[j] for j in range(p)]

    state = ModelState(
        mean_part=build_partition(mean_groups, [float(v) for v in mean_values]),
        var_part=build_partition([[j] for j in range(p)], [float(v) for v in sigma_sq]),
        samples=build_partition([list(range(n))]),
        cluster_means={0: ClusterMeanVector(p)},
        attr_prob=np.full(p, attr_prob),
        slab_var=slab_var,
        conc_samples=concs,
        conc_mean=concs,
        conc_var=concs,
        conc_inner=concs,
    )
    return state, DataMatrix(y), hp
