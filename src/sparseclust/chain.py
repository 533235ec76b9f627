"""Chain orchestration: initialization, one full sweep, and trace recording."""

from dataclasses import dataclass

import numpy as np

from .baseline import step_baseline_means, step_baseline_vars
from .clusters import ClusterMeanVector, step_clusters
from .concentration import update_concentration
from .densities import SamplerAbort
from .model import ModelState
from .partition import Partition
from .sparsity import step_pi, step_rho, update_eta_sq

ALL_ONE_CLUSTER = "one"
ALL_SINGLETONS = "singletons"

@dataclass
class ChainConfig:
    iterations: int = 50_000
    burn_in: int = 10_000
    thin: int = 1
    seed: int = 0
    init_mode: str = ALL_ONE_CLUSTER

    def __post_init__(self):
        if self.iterations <= 0 or self.thin <= 0 or self.burn_in < 0:
            raise ValueError("iterations and thin must be positive, burn_in nonnegative")
        if self.burn_in >= self.iterations:
            raise ValueError("burn_in must be smaller than iterations")
        if self.thin > self.iterations - self.burn_in:
            raise ValueError(
                f"thin={self.thin} records nothing in {self.iterations - self.burn_in} "
                "post-burn-in sweeps"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.init_mode not in (ALL_ONE_CLUSTER, ALL_SINGLETONS):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")


class ChainTrace:
    """Per-iteration records after burn-in and thinning.

    Cluster-indexed quantities are stored with contiguous labels in order of
    first appearance within each iteration; fitted mean matrices are
    reconstructed on demand from the baseline vector, the cluster means and
    the assignments. The inclusion probabilities are not recorded: their
    posterior means follow from the means and rho (see
    ``summarize.inclusion_posterior_mean``).
    """

    def __init__(self, n, p):
        self.n = n
        self.p = p
        self.ks = []
        self.assignments = []
        self.rhos = []
        self.means = []
        self.baselines = []

    def __len__(self):
        return len(self.ks)

    def record(self, state):
        labels, slots = state.samples.canonical()
        order = state.samples.ids[slots].tolist()
        self.ks.append(state.samples.n_clusters())
        self.assignments.append(labels)
        self.rhos.append(state.attr_prob.copy())
        self.means.append(np.stack([state.cluster_means[cid].mu() for cid in order]))
        self.baselines.append(state.mean_part.values_vector())

    def fitted_mean(self, t):
        """The n x p matrix mu_j + mu_{c_i j} at recorded iteration t."""
        return self.baselines[t] + self.means[t][self.assignments[t]]


def merge_traces(traces):
    """Pool recorded iterations of several chains (e.g. one per seed)."""
    if not traces:
        raise ValueError("no traces to merge")
    out = ChainTrace(traces[0].n, traces[0].p)
    for tr in traces:
        out.ks.extend(tr.ks)
        out.assignments.extend(tr.assignments)
        out.rhos.extend(tr.rhos)
        out.means.extend(tr.means)
        out.baselines.extend(tr.baselines)
    return out


def init_state(data, hp, cfg, rng):
    """Starting state: baselines at per-attribute moments (one singleton
    cluster each), all mean shifts at zero, scalars at prior-scale values.
    Nothing is drawn from ``rng``."""
    n, p = data.n, data.p
    col_mean = data.y.mean(axis=0)
    col_var = data.y.var(axis=0, ddof=1)
    col_var = np.maximum(col_var, 1e-12)  # constant columns would break positivity

    mean_part = Partition(np.arange(p), np.ones(p), col_mean)
    var_part = Partition(np.arange(p), np.ones(p), col_var)
    if cfg.init_mode == ALL_ONE_CLUSTER:
        samples = Partition(np.zeros(n), [n], [0.0])
    else:
        samples = Partition(np.arange(n), np.ones(n), np.zeros(n))

    return ModelState(
        mean_part=mean_part,
        var_part=var_part,
        samples=samples,
        cluster_means={cid: ClusterMeanVector(p) for cid in samples.cluster_ids()},
        attr_prob=np.full(p, hp.rho_a / (hp.rho_a + hp.rho_b)),
        slab_var=1.0,
        conc_samples=hp.conc_shape / hp.conc_rate,
        conc_mean=hp.conc_shape / hp.conc_rate,
        conc_var=hp.conc_shape / hp.conc_rate,
        conc_inner=hp.conc_shape / hp.conc_rate,
    )


def step_concentrations(state, data, hp, rng):
    """Step 7: each DP's concentration sees exactly the partitions it
    generated; the inner one sees every cluster mean's inner partition."""
    inner = [(m.inner_cluster_count(), m.nonzero_count()) for m in state.cluster_means.values()]
    for name, pairs in (
        ("conc_samples", [(state.samples.n_clusters(), data.n)]),
        ("conc_mean", [(state.mean_part.n_clusters(), data.p)]),
        ("conc_var", [(state.var_part.n_clusters(), data.p)]),
        ("conc_inner", inner),
    ):
        conc = update_concentration(getattr(state, name), pairs, hp.conc_shape, hp.conc_rate, rng)
        setattr(state, name, conc)


def sweep(state, data, hp, rng):
    """One full update cycle over all unknowns."""
    step_baseline_means(state, data, hp, rng)
    step_baseline_vars(state, data, hp, rng)
    n_active = step_pi(state, hp, rng)
    step_rho(state, hp, rng, n_active)
    step_clusters(state, data, hp, rng)
    update_eta_sq(state, hp, rng)
    step_concentrations(state, data, hp, rng)


def run_chain(data, hp, cfg):
    """Run one chain; identical (data, hp, cfg) give a bit-identical trace."""
    rng = np.random.default_rng(cfg.seed)
    state = init_state(data, hp, cfg, rng)
    trace = ChainTrace(data.n, data.p)
    for it in range(cfg.iterations):
        try:
            sweep(state, data, hp, rng)
        except SamplerAbort as exc:
            raise SamplerAbort(f"iteration {it}: {exc}") from exc
        offset = it - cfg.burn_in
        if offset >= 0 and offset % cfg.thin == cfg.thin - 1:
            trace.record(state)
    return trace
