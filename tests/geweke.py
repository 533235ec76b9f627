"""The joint-distribution test's simulators (Geweke, "Getting it right",
JASA 2004): forward draws of the whole joint (a state from the prior, data
given the state), the marginal-conditional and successive-conditional
samplers of a set of scalar statistics, and the z-scores that compare them.
``test_diagnostics.py::test_joint_distribution_gate`` runs them on the full
sweep. The state holds nothing derived from the data, so data redrawn in
place needs no resync before the next sweep.

This is test support, not a test module: pytest does not collect it, and no
package module imports it. Every prior draw here builds on
``partition.crp_draw``, and a cluster's mean vector on
``diagnostics.draw_prior_mean``.
"""

import math

import numpy as np

from sparseclust.chain import sweep
from sparseclust.diagnostics import batch_means_se, draw_prior_mean
from sparseclust.model import DataMatrix, ModelState
from sparseclust.partition import crp_draw
from sparseclust.sparsity import slab_coef

STATISTIC_NAMES = (
    "sample_clusters",
    "mean_clusters",
    "var_clusters",
    "mean_attr_prob",
    "slab_var",
    "conc_samples",
    "conc_inner",
    "mean_sq_shift",
)


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


def draw_data(state, rng):
    """Generate y given the state: baseline + cluster shift + noise."""
    mu_base = state.mean_part.values_vector()
    sd = np.sqrt(state.var_part.values_vector())
    means = np.array([state.cluster_means[cid].mu() for cid in state.samples.cluster_ids()])
    return mu_base + means[state.samples.labels] + sd * rng.standard_normal((state.n, state.p))


def state_statistics(state):
    """The scalar functionals compared between the two simulators."""
    k = state.samples.n_clusters()
    inner = [m.inner for m in state.cluster_means.values()]
    values = np.concatenate([part.values for part in inner])
    counts = np.concatenate([part.counts for part in inner])
    ssq = float(counts @ (values * values))
    return (
        float(k),
        float(state.mean_part.n_clusters()),
        float(state.var_part.n_clusters()),
        float(state.attr_prob.mean()),
        float(state.slab_var),
        float(state.conc_samples),
        float(state.conc_inner),
        ssq / (k * state.p),
    )


def marginal_conditional_samples(n, p, hp, draws, rng):
    """Independent forward draws of the statistics from the prior."""
    out = np.empty((draws, len(STATISTIC_NAMES)))
    for t in range(draws):
        state = draw_state_from_prior(n, p, hp, rng)
        out[t] = state_statistics(state)
    return out


def successive_conditional_samples(n, p, hp, draws, rng):
    """Statistics along the coupled chain: resample data given the state,
    then the state given the data by one full transition-kernel sweep."""
    state = draw_state_from_prior(n, p, hp, rng)
    data = DataMatrix(draw_data(state, rng))
    out = np.empty((draws, len(STATISTIC_NAMES)))
    for t in range(draws):
        sweep(state, data, hp, rng)
        out[t] = state_statistics(state)
        data.y[...] = draw_data(state, rng)
    return out


def geweke_z_scores(forward, successive):
    """Two-sample z per statistic; the successive side uses batch-means SEs
    to account for autocorrelation, the forward side is independent."""
    zs = {}
    for idx, name in enumerate(STATISTIC_NAMES):
        a = forward[:, idx]
        b = successive[:, idx]
        se_a = a.std(ddof=1) / math.sqrt(len(a))
        se_b = batch_means_se(b)
        zs[name] = float((a.mean() - b.mean()) / math.hypot(se_a, se_b))
    return zs
