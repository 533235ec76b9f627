"""Sparse Bayesian Dirichlet-process clustering with variable selection.

The package root holds the user API, in five groups:

- chains: ALL_ONE_CLUSTER, ALL_SINGLETONS, ChainConfig, ChainTrace,
  merge_traces, run_chain;
- data and model: DataMatrix, DegenerateDataError, Hyperparams,
  default_hyperparams, SamplerAbort;
- input: load_csv, preprocess_expression, standardize_columns;
- simulation: SimTruth, gen_example1 to gen_example4, gen_golub_shape;
- summaries: coclustering, fitted_mean_posterior, inclusion_posterior_mean,
  k_posterior, mse_fitted_means, relabel_conditional_on_K, select_attributes.

The transition kernel and the state it acts on stay in their modules.
"""

__version__ = "0.1.0"

from .chain import (
    ALL_ONE_CLUSTER, ALL_SINGLETONS, ChainConfig, ChainTrace, merge_traces, run_chain)
from .densities import SamplerAbort
from .io import load_csv, preprocess_expression, standardize_columns
from .model import DataMatrix, DegenerateDataError, Hyperparams, default_hyperparams
from .simulate import (
    SimTruth, gen_example1, gen_example2, gen_example3, gen_example4, gen_golub_shape)
from .summarize import (
    coclustering, fitted_mean_posterior, inclusion_posterior_mean, k_posterior,
    mse_fitted_means, relabel_conditional_on_K, select_attributes)

__all__ = [
    # chains
    "ALL_ONE_CLUSTER", "ALL_SINGLETONS", "ChainConfig", "ChainTrace", "merge_traces",
    "run_chain",
    # data and model
    "DataMatrix", "DegenerateDataError", "Hyperparams", "default_hyperparams", "SamplerAbort",
    # input
    "load_csv", "preprocess_expression", "standardize_columns",
    # simulation
    "SimTruth", "gen_example1", "gen_example2", "gen_example3", "gen_example4",
    "gen_golub_shape",
    # summaries
    "coclustering", "fitted_mean_posterior", "inclusion_posterior_mean", "k_posterior",
    "mse_fitted_means", "relabel_conditional_on_K", "select_attributes",
]
