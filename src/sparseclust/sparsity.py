"""Updates for the hierarchical point-mass sparsity layer.

Covers the per-cluster inclusion probabilities (``incl_prob``), the
per-attribute activity propensities (``attr_prob``) and the shared slab
variance (``slab_var``).
"""

import numpy as np


def spike_zero_weight(rho, slab_a, slab_b):
    """Posterior probability that incl_prob is exactly zero given a zero mean.

    The continuous branch keeps marginal mass rho * slab_b / (slab_a + slab_b)
    after observing a zero mean component, so the spike weight must be
    renormalized against it.
    """
    cont = rho * slab_b / (slab_a + slab_b)
    return (1.0 - rho) / ((1.0 - rho) + cont)


def draw_pi_row(zero, attr_prob, hp, rng):
    """One draw of inclusion probabilities given which mean components are
    exactly zero (the boolean mask ``zero``) and their attributes'
    propensities ``attr_prob``, one entry each."""
    p = len(zero)
    row = np.empty(p)
    n_nonzero = int(p - zero.sum())
    if n_nonzero:
        row[~zero] = rng.beta(hp.slab_a + 1.0, hp.slab_b, size=n_nonzero)
    if n_nonzero < p:
        rho_z = attr_prob[zero]
        w0 = spike_zero_weight(rho_z, hp.slab_a, hp.slab_b)
        keep_zero = rng.random(size=rho_z.shape[0]) < w0
        vals = np.where(keep_zero, 0.0, rng.beta(hp.slab_a, hp.slab_b + 1.0, size=rho_z.shape[0]))
        row[zero] = vals
    return row


def step_pi(state, hp, rng):
    """Refresh the full inclusion-probability matrix (one sweep of step 3)."""
    for cid in state.samples.cluster_ids():
        zero = state.cluster_means[cid].inner.spike_mask()
        state.incl_prob[cid] = draw_pi_row(zero, state.attr_prob, hp, rng)


def step_rho(state, hp, rng):
    """Resample every attr_prob[j] given column j of the inclusion matrix."""
    k_live = state.samples.n_clusters()
    p = state.attr_prob.shape[0]
    n_active = np.zeros(p)
    for cid in state.samples.cluster_ids():
        n_active += state.incl_prob[cid] > 0.0
    state.attr_prob = rng.beta(hp.rho_a + n_active, hp.rho_b + k_live - n_active)


def update_eta_sq(state, hp, rng):
    """Resample the slab variance from its inverse-gamma conditional.

    Each live inner cluster contributes its unique value once, whatever its
    multiplicity across mean components.
    """
    values = np.concatenate([m.inner.values for m in state.cluster_means.values()])
    ssq = float(values @ values)
    state.slab_var = (hp.eta_rate + 0.5 * ssq) / rng.gamma(hp.eta_shape + 0.5 * len(values))
    return state.slab_var
