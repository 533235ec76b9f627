"""Forward simulation of the full joint: state from the prior, data given
the state. Together with the transition kernel this supports
joint-distribution (marginal-conditional vs successive-conditional) testing;
``tests/test_diagnostics.py::test_joint_distribution_gate`` runs that test on
the full sweep. The state holds nothing derived from the data, so data
redrawn in place needs no resync before the next sweep.

Every draw from the prior lives here or in ``partition.crp_draw``, the one
CRP draw that these build on: ``draw_state_from_prior`` draws a whole state,
and ``draw_prior_mean`` one cluster mean vector, which is also the prior
proposal that ``diagnostics.measure_birth_acceptance`` compares with the
sequential one.
"""

import math

import numpy as np

from .clusters import ClusterMeanVector
from .model import ModelState
from .partition import crp_draw
from .sparsity import slab_coef


def draw_state_from_prior(n, p, hp, rng):
    """One draw of the complete latent state from the prior, with the
    inclusion probabilities integrated out as the state holds none."""
    conc_samples = rng.gamma(hp.conc_shape, 1.0 / hp.conc_rate)
    conc_mean = rng.gamma(hp.conc_shape, 1.0 / hp.conc_rate)
    conc_var = rng.gamma(hp.conc_shape, 1.0 / hp.conc_rate)
    conc_inner = rng.gamma(hp.conc_shape, 1.0 / hp.conc_rate)
    slab_var = hp.eta_rate / rng.gamma(hp.eta_shape)
    attr_prob = rng.beta(hp.rho_a, hp.rho_b, size=p)

    mean_part = crp_draw(
        p, conc_mean, rng,
        lambda: hp.base_mean + math.sqrt(hp.base_var) * rng.standard_normal(),
    )
    var_part = crp_draw(
        p, conc_var, rng, lambda: hp.var_rate / rng.gamma(hp.var_shape),
    )
    samples = crp_draw(n, conc_samples, rng, lambda: 0.0)

    s = slab_coef(hp) * attr_prob
    cluster_means = {cid: draw_prior_mean(s, conc_inner, slab_var, rng)
                     for cid in samples.cluster_ids()}

    return ModelState(
        mean_part=mean_part,
        var_part=var_part,
        samples=samples,
        cluster_means=cluster_means,
        attr_prob=attr_prob,
        slab_var=slab_var,
        conc_samples=conc_samples,
        conc_mean=conc_mean,
        conc_var=conc_var,
        conc_inner=conc_inner,
    )


def draw_prior_mean(s, conc_inner, slab_var, rng):
    """Draw a mean vector from its prior, with the inclusion probabilities
    integrated out: component j is nonzero with probability ``s[j]``
    (rho_j slab_a / (slab_a + slab_b)), and the nonzero components share
    N(0, slab_var) values through a CRP with concentration ``conc_inner``.
    """
    return ClusterMeanVector(len(s), crp_draw(
        len(s), conc_inner, rng, lambda: math.sqrt(slab_var) * rng.standard_normal(), s))


def draw_data(state, rng):
    """Generate y given the state: baseline + cluster shift + noise."""
    mu_base = state.mean_part.values_vector()
    sd = np.sqrt(state.var_part.values_vector())
    means = np.array([state.cluster_means[cid].mu() for cid in state.samples.cluster_ids()])
    return mu_base + means[state.samples.labels] + sd * rng.standard_normal((state.n, state.p))
