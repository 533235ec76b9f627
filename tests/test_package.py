import os
import pkgutil
import subprocess
import sys

import sparseclust

USER_API = {
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
}


def test_root_exports_the_user_api():
    """The root exports the user API and no kernel internals."""
    assert set(sparseclust.__all__) == USER_API

def test_all_names_resolve():
    missing = [name for name in sparseclust.__all__ if not hasattr(sparseclust, name)]
    assert not missing
    assert len(set(sparseclust.__all__)) == len(sparseclust.__all__)


def test_star_import():
    namespace = {}
    exec("from sparseclust import *", namespace)
    assert set(sparseclust.__all__) <= set(namespace)


def test_cli_loads_every_module_but_diagnostics(tmp_path):
    """A fresh interpreter, with only the package's parent on its path,
    loads every package module on importing the CLI except ``diagnostics``,
    so the package holds no module that only tests import. With ``tests/``
    off the path, it also shows that no package module imports the tests'
    harness."""
    parent = os.path.dirname(os.path.dirname(sparseclust.__file__))
    code = ("import sys, sparseclust.cli; "
            "print(*(m.split('.')[1] for m in sys.modules if m.startswith('sparseclust.')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": parent})
    modules = {m.name for m in pkgutil.iter_modules(sparseclust.__path__)}
    assert set(out.stdout.split()) >= modules - {"diagnostics"}


def test_cli_imports_no_scipy(tmp_path):
    """The package runs on numpy alone: a fresh interpreter that imports the
    CLI has loaded no scipy module."""
    parent = os.path.dirname(os.path.dirname(sparseclust.__file__))
    code = ("import sys, sparseclust.cli; "
            "print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": parent})
    assert out.stdout.split() == []
