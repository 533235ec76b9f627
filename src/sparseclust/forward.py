"""Forward simulation of the full joint: state from the prior, data given
the state. Together with the transition kernel this supports
joint-distribution (marginal-conditional vs successive-conditional) testing;
``tests/test_diagnostics.py::test_joint_distribution_gate`` runs that test on
the full sweep. The state holds nothing derived from the data, so data
redrawn in place needs no resync before the next sweep.
"""

import math

import numpy as np

from .clusters import draw_prior_mean
from .model import ModelState
from .partition import Partition, crp_seat


def _crp_partition(n_items, conc, rng, values):
    """Sequential CRP draw; ``values`` supplies a payload per new cluster."""
    part = Partition(n_items)
    for i in range(n_items):
        cid = crp_seat(part, conc, rng)
        if cid is None:
            part.attach_new(i, values())
        else:
            part.attach(i, cid)
    return part


def draw_cluster_mean_from_prior(p, attr_prob, hp, slab_var, conc_inner, rng):
    """Joint prior draw of one cluster's inclusion row and mean vector."""
    pi_row = np.empty(p)

    def draw_pi(j):
        pi_row[j] = rng.beta(hp.slab_a, hp.slab_b) if rng.random() < attr_prob[j] else 0.0
        return pi_row[j]

    return pi_row, draw_prior_mean(p, draw_pi, conc_inner, slab_var, rng)


def draw_state_from_prior(n, p, hp, rng):
    """One draw of the complete latent state from the prior."""
    conc_samples = rng.gamma(hp.conc_shape, 1.0 / hp.conc_rate)
    conc_mean = rng.gamma(hp.conc_shape, 1.0 / hp.conc_rate)
    conc_var = rng.gamma(hp.conc_shape, 1.0 / hp.conc_rate)
    conc_inner = rng.gamma(hp.conc_shape, 1.0 / hp.conc_rate)
    slab_var = hp.eta_rate / rng.gamma(hp.eta_shape)
    attr_prob = rng.beta(hp.rho_a, hp.rho_b, size=p)

    mean_part = _crp_partition(
        p, conc_mean, rng,
        lambda: hp.base_mean + math.sqrt(hp.base_var) * rng.standard_normal(),
    )
    var_part = _crp_partition(
        p, conc_var, rng, lambda: hp.var_rate / rng.gamma(hp.var_shape),
    )
    samples = _crp_partition(n, conc_samples, rng, lambda: 0.0)

    cluster_means = {}
    incl_prob = {}
    for cid in samples.cluster_ids():
        pi_row, mean = draw_cluster_mean_from_prior(
            p, attr_prob, hp, slab_var, conc_inner, rng
        )
        cluster_means[cid] = mean
        incl_prob[cid] = pi_row

    return ModelState(
        mean_part=mean_part,
        var_part=var_part,
        samples=samples,
        cluster_means=cluster_means,
        incl_prob=incl_prob,
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
