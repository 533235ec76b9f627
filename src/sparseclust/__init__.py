"""Sparse Bayesian Dirichlet-process clustering with variable selection."""

__version__ = "0.1.0"

from .chain import (
    ALL_ONE_CLUSTER,
    ALL_SINGLETONS,
    ChainConfig,
    ChainTrace,
    init_state,
    merge_traces,
    run_chain,
    sweep,
)
from .clusters import (
    BirthDeathPass,
    ClusterMeanVector,
    gibbs_reassign,
    gibbs_update_cluster_mean,
    mh_birth_move,
    mh_death_move,
    sample_prior_mean,
)
from .concentration import update_concentration
from .densities import (
    SamplerAbort,
    log_beta_pdf,
    log_inv_gamma_pdf,
    log_normal_pdf,
)
from .io import load_csv, preprocess_expression, standardize_columns
from .model import DataMatrix, DegenerateDataError, Hyperparams, ModelState, default_hyperparams
from .partition import SPIKE, Partition, crp_log_prob
from .simulate import (
    SimTruth, gen_example1, gen_example2, gen_example3, gen_example4, gen_golub_shape)
from .sparsity import update_eta_sq
from .summarize import (
    coclustering,
    fitted_mean_posterior,
    inclusion_posterior_mean,
    k_posterior,
    mse_fitted_means,
    relabel_conditional_on_K,
    select_attributes,
)

__all__ = [
    "ALL_ONE_CLUSTER",
    "ALL_SINGLETONS",
    "BirthDeathPass",
    "ChainConfig",
    "ChainTrace",
    "ClusterMeanVector",
    "DataMatrix",
    "DegenerateDataError",
    "Hyperparams",
    "ModelState",
    "Partition",
    "SPIKE",
    "SamplerAbort",
    "SimTruth",
    "coclustering",
    "crp_log_prob",
    "default_hyperparams",
    "fitted_mean_posterior",
    "gen_example1",
    "gen_example2",
    "gen_example3",
    "gen_example4",
    "gen_golub_shape",
    "gibbs_reassign",
    "gibbs_update_cluster_mean",
    "inclusion_posterior_mean",
    "init_state",
    "k_posterior",
    "load_csv",
    "log_beta_pdf",
    "log_inv_gamma_pdf",
    "log_normal_pdf",
    "merge_traces",
    "mh_birth_move",
    "mh_death_move",
    "mse_fitted_means",
    "preprocess_expression",
    "relabel_conditional_on_K",
    "run_chain",
    "sample_prior_mean",
    "select_attributes",
    "standardize_columns",
    "sweep",
    "update_concentration",
    "update_eta_sq",
]
