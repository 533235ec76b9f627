import copy
import json

import numpy as np
import pytest

from sparseclust.chain import ChainConfig, init_state, sweep
from sparseclust.clusters import ClusterMeanVector
from sparseclust.model import (
    DataMatrix,
    DegenerateDataError,
    Hyperparams,
    ModelState,
    default_hyperparams,
)
from sparseclust.partition import Partition
from sparseclust.simulate import gen_example1, gen_example3

from conftest import make_state


def test_data_matrix_validates():
    with pytest.raises(ValueError):
        DataMatrix(np.array([[1.0, 2.0]]))  # one sample
    with pytest.raises(ValueError):
        DataMatrix(np.array([[1.0], [np.inf]]))
    dm = DataMatrix([[1.0, 2.0], [3.0, 4.0]], names=["a", "b"])
    assert dm.n == 2 and dm.p == 2


def test_hyperparams_defaults():
    hp = Hyperparams(base_mean=0.0, base_var=1.0)
    assert (hp.var_shape, hp.var_rate) == (0.5, 0.5)
    assert (hp.eta_shape, hp.eta_rate) == (0.5, 0.5)
    assert (hp.conc_shape, hp.conc_rate) == (0.5, 0.5)
    assert (hp.slab_a, hp.slab_b) == (9.0, 1.0)
    assert (hp.rho_a, hp.rho_b) == (0.2, 199.8)
    with pytest.raises(ValueError):
        Hyperparams(base_mean=0.0, base_var=0.0)
    with pytest.raises(ValueError):
        Hyperparams(base_mean=float("nan"), base_var=1.0)
    with pytest.raises(ValueError):
        Hyperparams(base_mean=0.0, base_var=1.0, slab_a=float("inf"))


def test_default_hyperparams_degenerate():
    with pytest.raises(DegenerateDataError):
        default_hyperparams(DataMatrix([[0.0, 0.0], [0.0, 0.0]]))


def test_default_hyperparams_standardized_is_degenerate():
    """Standardized columns leave attribute means that differ only by
    rounding; their spread must not become the base-measure variance."""
    data, _ = gen_example1(0)
    z = (data.y - data.y.mean(axis=0)) / data.y.std(axis=0)
    with pytest.raises(DegenerateDataError, match="base_var"):
        default_hyperparams(DataMatrix(z))


def test_default_hyperparams_overrides_skip_the_data():
    flat = DataMatrix([[0.0, 1.0], [1.0, 0.0]])  # equal attribute means
    hp = default_hyperparams(flat, base_mean=0.0, base_var=2.0, rho_a=2.0)
    assert (hp.base_mean, hp.base_var, hp.rho_a) == (0.0, 2.0, 2.0)
    assert default_hyperparams(flat, base_var=2.0).base_mean == 0.5
    with pytest.raises(DegenerateDataError):
        default_hyperparams(flat, base_mean=0.0)
    data, _ = gen_example1(0)
    base = default_hyperparams(data)
    assert default_hyperparams(data, slab_a=8.0) == Hyperparams(
        **{**base.__dict__, "slab_a": 8.0})


def test_default_hyperparams_two_by_two():
    hp = default_hyperparams(DataMatrix([[1.0, 3.0], [1.0, 3.0]]))
    assert hp.base_mean == pytest.approx(2.0, abs=1e-15)
    assert hp.base_var == pytest.approx(1.0, abs=1e-15)


def test_default_hyperparams_streaming_oracle():
    """Two-pass streaming mean/variance of the column means, 1e-12 relative."""
    data, _ = gen_example1(123)
    col_means = []
    for j in range(data.p):
        acc = 0.0
        for i in range(data.n):
            acc += (data.y[i, j] - acc) / (i + 1)
        col_means.append(acc)
    grand = 0.0
    for j, v in enumerate(col_means):
        grand += (v - grand) / (j + 1)
    spread = sum((v - grand) ** 2 for v in col_means) / data.p

    hp = default_hyperparams(data)
    assert hp.base_mean == pytest.approx(grand, rel=1e-12)
    assert hp.base_var == pytest.approx(spread, rel=1e-12)


def test_default_hyperparams_permutation_invariant():
    rng = np.random.default_rng(5)
    y = rng.normal(size=(6, 8))
    hp = default_hyperparams(DataMatrix(y))
    hp_rows = default_hyperparams(DataMatrix(y[rng.permutation(6)]))
    hp_cols = default_hyperparams(DataMatrix(y[:, rng.permutation(8)]))
    assert hp.base_mean == pytest.approx(hp_rows.base_mean, rel=1e-12)
    assert hp.base_var == pytest.approx(hp_cols.base_var, rel=1e-12)


def test_state_serialization_roundtrip_bit_exact():
    state, data, _ = make_state(n=5, p=4, seed=3)
    d = state.to_dict()
    # through JSON text as well: repr round-trips every float64 exactly
    restored = ModelState.from_dict(json.loads(json.dumps(d)))
    for name in ("samples", "mean_part", "var_part"):
        assert getattr(restored, name).to_dict() == getattr(state, name).to_dict()
    assert restored.slab_var == state.slab_var
    assert restored.conc_inner == state.conc_inner
    np.testing.assert_array_equal(restored.attr_prob, state.attr_prob)
    for cid in state.cluster_means:
        np.testing.assert_array_equal(
            restored.cluster_means[cid].mu(), state.cluster_means[cid].mu()
        )
    restored.validate(data)


def _state_arrays(state):
    parts = [state.mean_part, state.var_part, state.samples,
             *(m.inner for m in state.cluster_means.values())]
    return [state.attr_prob,
            *(getattr(part, name) for part in parts
              for name in ("labels", "counts", "values", "ids"))]


def test_copies_are_independent():
    state, data, hp = make_state(n=6, p=5, seed=4, require_multi=True)
    before = state.to_dict()
    twin = copy.deepcopy(state)
    for a in _state_arrays(state):
        assert not any(np.shares_memory(a, b) for b in _state_arrays(twin))
    rng = np.random.default_rng(0)
    for _ in range(3):
        sweep(twin, data, hp, rng)
    assert state.to_dict() == before
    assert twin.to_dict() != before
    # the form the benchmark hashes: plain lists and numbers
    json.dumps(state.to_dict(), default=int)
    json.dumps(twin.to_dict(), default=int)


def test_validator_checks_data_shape():
    state, data, _ = make_state(n=5, p=4, seed=17)
    state.validate(data)
    with pytest.raises(AssertionError, match="shape"):
        state.validate(DataMatrix(data.y[:, :3]))


def test_validator_checks_per_attribute_lengths():
    """var_part, attr_prob and every cluster mean have one item per
    attribute of mean_part."""
    data, _truth = gen_example3(0)
    hp = default_hyperparams(data)
    state = init_state(data, hp, ChainConfig(seed=0), np.random.default_rng(0))
    state.validate(data)
    cid = state.samples.cluster_ids()[0]
    bad = [("attr_prob", "attr_prob", state.attr_prob[:3]),
           ("cluster_means", f"cluster {cid}'s mean", {cid: ClusterMeanVector(7)}),
           ("var_part", "var_part", Partition(np.zeros(data.p - 1, dtype=int), [data.p - 1], [1.0]))]
    for field, name, value in bad:
        twin = copy.deepcopy(state)
        setattr(twin, field, value)
        with pytest.raises(AssertionError, match=f"^{name} has "):
            twin.validate(data)


def test_validator_catches_cluster_means_out_of_sync():
    """Every live sample cluster, and no other id, has a cluster mean."""
    state, data, _ = make_state(n=5, p=4, seed=17)
    state.validate(data)
    cid = state.samples.cluster_ids()[0]
    mean = state.cluster_means.pop(cid)
    with pytest.raises(AssertionError, match="out of sync"):
        state.validate(data)
    state.cluster_means[cid] = mean
    state.cluster_means[max(state.cluster_means) + 1] = ClusterMeanVector(4)
    with pytest.raises(AssertionError, match="out of sync"):
        state.validate(data)
