"""Updates for the hierarchical point-mass sparsity layer.

Covers the per-attribute activity propensities (``attr_prob``) and the
shared slab variance (``slab_var``). The per-cluster inclusion
probabilities pi_kj ~ (1 - rho_j) delta_0 + rho_j Beta(slab_a, slab_b) are
not part of the state: every move on a cluster mean integrates them out,
seating component j off SPIKE with probability rho_j slab_a / (slab_a +
slab_b). ``step_pi`` draws only what ``step_rho`` conditions on, each
attribute's number of clusters on the slab branch (pi_kj > 0), which makes
the pair a partially collapsed Gibbs step (van Dyk & Park 2008, JASA
103:790).
"""

import numpy as np


def slab_coef(hp):
    """slab_a / (slab_a + slab_b): the prior probability that a component
    is nonzero is this times rho_j."""
    return hp.slab_a / (hp.slab_a + hp.slab_b)


def spike_zero_weight(rho, slab_a, slab_b):
    """Posterior probability that an inclusion probability is exactly zero
    given a zero mean component.

    The continuous branch keeps marginal mass rho * slab_b / (slab_a + slab_b)
    after observing a zero mean component, so the spike weight must be
    renormalized against it.
    """
    cont = rho * slab_b / (slab_a + slab_b)
    return (1.0 - rho) / ((1.0 - rho) + cont)


def step_pi(state, hp, rng):
    """Per attribute j, the number of clusters whose pi_kj is on the slab
    branch, drawn given the means and attr_prob: every nonzero component,
    and each zero one with probability 1 - ``spike_zero_weight(rho_j)``."""
    k_live = state.samples.n_clusters()
    nonzero = sum(m.inner.labels >= 0 for m in state.cluster_means.values())
    w0 = spike_zero_weight(state.attr_prob, hp.slab_a, hp.slab_b)
    return nonzero + rng.binomial(k_live - nonzero, 1.0 - w0)


def step_rho(state, hp, rng, n_active):
    """Resample every attr_prob[j] given ``n_active[j]``, the number of the
    live clusters whose pi_kj is on the slab branch (see ``step_pi``)."""
    k_live = state.samples.n_clusters()
    state.attr_prob = rng.beta(hp.rho_a + n_active, hp.rho_b + k_live - n_active)


def update_eta_sq(state, hp, rng):
    """Resample the slab variance from its inverse-gamma conditional.

    Each live inner cluster contributes its unique value once, whatever its
    multiplicity across mean components.
    """
    values = np.concatenate([m.inner.values for m in state.cluster_means.values()])
    ssq = float(values @ values)
    state.slab_var = (hp.eta_rate + 0.5 * ssq) / rng.gamma(hp.eta_shape + 0.5 * len(values))
