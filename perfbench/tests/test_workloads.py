import numpy as np
import pytest

from workloads import WORKLOADS, gen_tall_n200

SHAPES = {"ex2_wide": (20, 1000), "tall_n200": (200, 50), "fit_ex4_dense": (20, 50)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_with_right_shape(name):
    make = WORKLOADS[name].make_data
    a, b, c = make(7), make(7), make(8)
    assert a.y.shape == SHAPES[name]
    np.testing.assert_array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_tall_n200_design():
    y = gen_tall_n200(3).y
    bounds = np.cumsum([0, 30, 30, 70, 70])
    for c in range(4):
        rows = y[bounds[c]:bounds[c + 1]]
        assert rows.shape[0] == [30, 30, 70, 70][c]
        np.testing.assert_allclose(rows[:, :10].mean(), (c + 1) / 4.0, atol=0.02)
        np.testing.assert_allclose(rows[:, 10:].mean(), 0.0, atol=0.02)
    np.testing.assert_allclose((y[:, 10:]).std(), 0.1, rtol=0.05)


def test_sub_seeds_are_distinct_across_workload_seeds():
    wl = WORKLOADS["tall_n200"]
    seen = [s for seed in range(5) for s in wl.sub_seeds(seed)]
    assert len(seen) == len(set(seen)) == 5 * wl.replicates


def test_fit_argv_names_the_inputs():
    argv = WORKLOADS["fit_ex4_dense"].fit_argv(12, "out", config="fit.cfg")
    assert argv[argv.index("--simulate") + 1] == "ex4"
    assert argv[argv.index("--config") + 1] == "fit.cfg"
    assert argv[argv.index("--init") + 1] == "singletons"
    argv = WORKLOADS["tall_n200"].fit_argv(3, "out", data_csv="d.csv")
    assert argv[argv.index("--data") + 1] == "d.csv"
    assert "--simulate" not in argv


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_sweep_count_follows_run_length_with_a_floor(name):
    wl = WORKLOADS[name]
    assert wl.sweeps_per_replicate(0.01) == wl.min_sweeps
    assert wl.sweeps_per_replicate(600) > wl.sweeps_per_replicate(60) > wl.min_sweeps
    # at least ten timed sweeps lie beyond the 90th percentile
    assert wl.min_sweeps * wl.replicates >= 100
