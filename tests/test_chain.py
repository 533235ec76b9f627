import numpy as np
import pytest

from sparseclust import chain, clusters
from sparseclust.chain import (
    ALL_ONE_CLUSTER,
    ALL_SINGLETONS,
    ChainConfig,
    ChainTrace,
    init_state,
    merge_traces,
    run_chain,
    sweep,
)
from sparseclust.clusters import ClusterMeanVector
from sparseclust.model import ModelState, default_hyperparams
from sparseclust.simulate import gen_example3

from conftest import build_partition, make_state


@pytest.fixture(scope="module")
def ex3():
    data, truth = gen_example3(7)
    return data, default_hyperparams(data)


def test_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(iterations=10, burn_in=10)
    with pytest.raises(ValueError):
        ChainConfig(thin=0)
    with pytest.raises(ValueError):
        ChainConfig(init_mode="nope")
    with pytest.raises(ValueError):  # would record no sweep at all
        ChainConfig(iterations=10, burn_in=5, thin=6)
    with pytest.raises(ValueError, match="seed"):  # numpy rejects negative seeds
        ChainConfig(seed=-1)
    ChainConfig(seed=0)
    ChainConfig(iterations=10, burn_in=5, thin=5)


def test_single_iteration_trace(ex3):
    data, hp = ex3
    tr = run_chain(data, hp, ChainConfig(iterations=1, burn_in=0, seed=1))
    assert len(tr) == 1


def test_trace_length_with_thinning(ex3):
    data, hp = ex3
    tr = run_chain(data, hp, ChainConfig(iterations=12, burn_in=2, thin=3, seed=1))
    assert len(tr) == (12 - 2) // 3


def test_same_seed_identical_traces(ex3):
    data, hp = ex3
    cfg = ChainConfig(iterations=15, burn_in=5, seed=42)
    a = run_chain(data, hp, cfg)
    b = run_chain(data, hp, cfg)
    assert a.ks == b.ks
    for xs, ys in zip(a.rhos, b.rhos):
        np.testing.assert_array_equal(xs, ys)
    for xs, ys in zip(a.means, b.means):
        np.testing.assert_array_equal(xs, ys)
    for xs, ys in zip(a.assignments, b.assignments):
        np.testing.assert_array_equal(xs, ys)


def test_init_modes(ex3):
    data, hp = ex3
    rng = np.random.default_rng(0)
    one = init_state(data, hp, ChainConfig(init_mode=ALL_ONE_CLUSTER), rng)
    assert one.samples.n_clusters() == 1
    sing = init_state(data, hp, ChainConfig(init_mode=ALL_SINGLETONS), rng)
    assert sing.samples.n_clusters() == data.n
    one.validate(data)
    sing.validate(data)
    # baselines start at per-attribute moments, one cluster per attribute
    assert one.mean_part.n_clusters() == data.p
    assert one.var_part.n_clusters() == data.p
    np.testing.assert_allclose(one.mean_part.values_vector(), data.y.mean(axis=0))
    np.testing.assert_allclose(one.var_part.values_vector(), data.y.var(axis=0, ddof=1))


@pytest.mark.parametrize("mode", [ALL_ONE_CLUSTER, ALL_SINGLETONS])
def test_init_state_seats_samples_as_per_item_construction(ex3, mode):
    """The sample partition that init_state writes in one go equals the one
    built from its member groups, each cluster with an all-SPIKE mean, and
    the generator is left untouched."""
    data, hp = ex3
    rng = np.random.default_rng(5)
    state = init_state(data, hp, ChainConfig(init_mode=mode), rng)
    if mode == ALL_ONE_CLUSTER:
        want = build_partition([list(range(data.n))])
    else:
        want = build_partition([[i] for i in range(data.n)])
    assert state.samples.to_dict() == want.to_dict()
    assert sorted(state.cluster_means) == want.cluster_ids()
    assert all(not m.nonzero_count() for m in state.cluster_means.values())
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state


def test_every_sweep_state_valid(ex3):
    data, hp = ex3
    rng = np.random.default_rng(3)
    state = init_state(data, hp, ChainConfig(init_mode=ALL_SINGLETONS), rng)
    for _ in range(12):
        sweep(state, data, hp, rng)
        state.validate(data)  # raises on any violation


def test_fitted_mean_shape(ex3):
    data, hp = ex3
    tr = run_chain(data, hp, ChainConfig(iterations=4, burn_in=0, seed=9))
    fm = tr.fitted_mean(0)
    assert fm.shape == (data.n, data.p)
    # reconstruction: baseline + own-cluster shift
    want = tr.baselines[0] + tr.means[0][tr.assignments[0]]
    np.testing.assert_array_equal(fm, want)


def test_merge_traces(ex3):
    data, hp = ex3
    a = run_chain(data, hp, ChainConfig(iterations=6, burn_in=2, seed=1))
    b = run_chain(data, hp, ChainConfig(iterations=6, burn_in=2, seed=2))
    m = merge_traces([a, b])
    assert len(m) == len(a) + len(b)
    assert m.ks == a.ks + b.ks


def test_record_labels_beyond_int16():
    n = 33_000
    samples = build_partition([[i] for i in range(n)])
    state = ModelState(
        mean_part=build_partition([[0]]), var_part=build_partition([[0]], [1.0]),
        samples=samples,
        cluster_means={cid: ClusterMeanVector(1) for cid in samples.cluster_ids()},
        attr_prob=np.full(1, 0.5), slab_var=1.0,
        conc_samples=1.0, conc_mean=1.0, conc_var=1.0, conc_inner=1.0,
    )
    tr = ChainTrace(n, 1)
    tr.record(state)
    assert tr.ks == [n]
    np.testing.assert_array_equal(tr.assignments[0], np.arange(n))
    assert tr.means[0].shape == (n, 1)


CHAIN_STEPS = (
    "step_baseline_means", "step_baseline_vars", "step_pi", "step_rho",
    "step_clusters", "update_eta_sq", "step_concentrations",
)
CLUSTER_MOVES = ("mh_birth_move", "mh_death_move", "gibbs_reassign",
                 "gibbs_update_cluster_mean")


def test_sweep_reaches_steps_and_moves_through_module_attributes(monkeypatch):
    """Per-step timing swaps these module attributes for wrappers, so a sweep
    must look every one of them up there: a step that is inlined or bound
    locally would escape its wrapper and silently read zero time."""
    calls = dict.fromkeys(("sweep", "record", *CHAIN_STEPS, *CLUSTER_MOVES), 0)

    def count(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("sweep", *CHAIN_STEPS):
        count(chain, name)
    for name in CLUSTER_MOVES:
        count(clusters, name)
    count(chain.ChainTrace, "record")

    # The reassignment pass calls gibbs_reassign only for a row its blocks
    # cannot call a stay; from this state (seed 2) rows move in the sweep.
    state, data, hp = make_state(n=6, p=3, seed=2, require_multi=True)
    sizes = state.samples.sizes()
    assert min(sizes) == 1 and max(sizes) > 1  # both birth and death apply
    chain.sweep(state, data, hp, np.random.default_rng(0))
    assert all(calls[name] >= 1 for name in ("sweep", *CHAIN_STEPS, *CLUSTER_MOVES)), calls

    calls.update(dict.fromkeys(calls, 0))
    chain.run_chain(data, hp, ChainConfig(iterations=2, burn_in=0))
    assert calls["sweep"] == 2 and calls["record"] == 2, calls
