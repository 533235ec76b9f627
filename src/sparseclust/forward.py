"""Forward simulation of the full joint: state from the prior, data given
the state. Together with the transition kernel this supports
joint-distribution (marginal-conditional vs successive-conditional) testing;
``tests/test_diagnostics.py::test_joint_distribution_gate`` runs that test on
the full sweep. The state holds nothing derived from the data, so data
redrawn in place needs no resync before the next sweep.
"""

import math

import numpy as np

from .clusters import _slab_coef, draw_prior_mean
from .model import ModelState
from .partition import crp_draw


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

    s = _slab_coef(hp) * attr_prob
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


def draw_data(state, rng):
    """Generate y given the state: baseline + cluster shift + noise."""
    n, p = state.n, state.p
    mu_base = state.mean_part.values_vector()
    sd = np.sqrt(state.var_part.values_vector())
    y = np.empty((n, p))
    for i in range(n):
        mu_c = state.cluster_means[state.samples.cluster_of(i)].mu()
        y[i] = mu_base + mu_c + sd * rng.standard_normal(p)
    return y
