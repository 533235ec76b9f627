import numpy as np
import pytest

from sparseclust.clusters import ClusterMeanVector
from sparseclust.forward import attach_data_sums, draw_data, draw_state_from_prior
from sparseclust.model import DataMatrix, Hyperparams, ModelState
from sparseclust.partition import Partition


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
        attach_data_sums(state, y)
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

    mean_part = Partition(p)
    for g, group in enumerate(mean_groups):
        cid = mean_part.attach_new(group[0], float(mean_values[g]))
        for j in group[1:]:
            mean_part.attach(j, cid)
    var_part = Partition(p)
    for j in range(p):
        var_part.attach_new(j, float(sigma_sq[j]))

    samples = Partition(n)
    cid = samples.attach_new(0)
    for i in range(1, n):
        samples.attach(i, cid)

    state = ModelState(
        mean_part=mean_part,
        var_part=var_part,
        samples=samples,
        cluster_means={cid: ClusterMeanVector.all_spike(p)},
        incl_prob={cid: np.full(p, 0.5)},
        cluster_data_sum={cid: y.sum(axis=0)},
        attr_prob=np.full(p, attr_prob),
        slab_var=slab_var,
        conc_samples=concs,
        conc_mean=concs,
        conc_var=concs,
        conc_inner=concs,
    )
    return state, DataMatrix(y), hp
