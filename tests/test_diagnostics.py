import copy
import dataclasses
import math

import numpy as np
import pytest

from sparseclust.chain import ALL_SINGLETONS, ChainConfig, init_state, sweep
from sparseclust.clusters import BirthDeathPass, mh_birth_move
from sparseclust.diagnostics import batch_means_se, measure_birth_acceptance
from sparseclust.model import DataMatrix, default_hyperparams
from sparseclust.simulate import gen_example1

from conftest import informative_hp, make_state, manual_state
from geweke import (
    STATISTIC_NAMES,
    draw_data,
    draw_state_from_prior,
    geweke_z_scores,
    marginal_conditional_samples,
    successive_conditional_samples,
)

GATE_SEEDS = (0, 1, 2, 3)
GATE_DRAWS = 4000
GATE_BOUND = 4.0


def test_joint_distribution_gate():
    """Getting-it-right test of the whole transition kernel (Geweke, JASA
    2004): statistics of independent prior draws must match those along the
    chain that alternates data given state with one full sweep. Per-seed
    z scores are pooled as sum(z) / sqrt(seeds), which is N(0, 1) under a
    correct kernel. The seeds and the bound were fixed before the first run;
    a failure is a kernel bug. The slab prior is InvGamma(3, 4), of mean 2 as
    ``informative_hp``'s InvGamma(2, 2) but of finite variance: under the
    latter slab_var and mean_sq_shift have infinite variance, and their z
    scores are not N(0, 1) even for a correct kernel."""
    hp = dataclasses.replace(informative_hp(), eta_shape=3.0, eta_rate=4.0)
    pooled = dict.fromkeys(STATISTIC_NAMES, 0.0)
    for seed in GATE_SEEDS:
        rng = np.random.default_rng(seed)
        forward = marginal_conditional_samples(6, 3, hp, GATE_DRAWS, rng)
        successive = successive_conditional_samples(6, 3, hp, GATE_DRAWS, rng)
        for name, z in geweke_z_scores(forward, successive).items():
            pooled[name] += z / math.sqrt(len(GATE_SEEDS))
    bad = {name: z for name, z in pooled.items() if not abs(z) < GATE_BOUND}
    assert not bad, f"pooled z beyond {GATE_BOUND}: {bad} (all: {pooled})"


def _draw_data_per_sample(state, rng):
    """y drawn one sample at a time: baseline + the sample's cluster mean +
    p standard normals scaled by the baseline sd."""
    mu_base = state.mean_part.values_vector()
    sd = np.sqrt(state.var_part.values_vector())
    y = np.empty((state.n, state.p))
    for i in range(state.n):
        mu_c = state.cluster_means[state.samples.cluster_of(i)].mu()
        y[i] = mu_base + mu_c + sd * rng.standard_normal(state.p)
    return y


def test_draw_data_equals_per_sample_draws():
    """``draw_data``'s one (n, p) draw is bitwise the per-sample loop's y,
    and leaves the generator where the loop does, on prior states and on
    states two sweeps on, whose cluster ids no longer equal their slots."""
    hp = informative_hp()
    ids_moved = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        state = draw_state_from_prior(6, 9, hp, rng)
        data = DataMatrix(draw_data(state, rng))
        for t in range(3):
            if t:
                sweep(state, data, hp, rng)
            want_rng = copy.deepcopy(rng)
            want = _draw_data_per_sample(state, want_rng)
            got = draw_data(state, rng)
            assert got.tobytes() == want.tobytes(), (seed, t)
            assert rng.bit_generator.state == want_rng.bit_generator.state
        ids_moved += state.samples.cluster_ids() != list(range(state.samples.n_clusters()))
    assert ids_moved > 0


def test_sequential_proposal_beats_prior_proposal():
    """On ex1 with rho ~ Beta(2,2), births proposed sequentially from the
    data have a median log acceptance ratio at least log(1000) above that of
    births drawn from the prior. The medians are compared because the mean
    acceptance of 400 prior proposals is set by its one largest draw and
    swings over tens of orders of magnitude between seeds."""
    data, _truth = gen_example1(0)
    hp = dataclasses.replace(default_hyperparams(data), rho_a=2.0, rho_b=2.0)
    rng = np.random.default_rng(0)
    state = init_state(data, hp, ChainConfig(seed=0), rng)
    sequential = measure_birth_acceptance(state, data, hp, rng, 400, "sequential")
    prior = measure_birth_acceptance(state, data, hp, rng, 400, "prior")
    assert sequential.shape == prior.shape == (400,)
    assert np.isfinite(sequential).all() and np.isfinite(prior).all()
    gap = np.median(sequential) - np.median(prior)
    assert gap >= math.log(1000.0), (np.median(sequential), np.median(prior))


def test_birth_acceptance_rejects_bad_arguments():
    """Rejected before any draw is made."""
    state, data, hp = make_state(n=6, p=5, seed=2, require_multi=True)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for attempts, proposal in ((0, "sequential"), (-3, "prior"), (5, "posterior")):
        with pytest.raises(ValueError, match="attempts|proposal"):
            measure_birth_acceptance(state, data, hp, rng, attempts, proposal)
    assert rng.bit_generator.state == before


def test_birth_acceptance_needs_a_non_singleton_sample():
    """From all singletons no birth can be attempted: rejected before any
    draw is made."""
    data, _truth = gen_example1(0)
    hp = default_hyperparams(data)
    rng = np.random.default_rng(0)
    state = init_state(data, hp, ChainConfig(init_mode=ALL_SINGLETONS), rng)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="no non-singleton samples"):
        measure_birth_acceptance(state, data, hp, rng, 5)
    assert rng.bit_generator.state == before


def test_batch_means_se_needs_two_values_per_batch():
    """199 values cannot fill 100 batches of two; 200 can."""
    x = np.random.default_rng(0).standard_normal(200)
    with pytest.raises(ValueError, match="100 batches"):
        batch_means_se(x[:199])
    assert math.isfinite(batch_means_se(x))


def test_birth_acceptance_scores_the_kernel_move():
    """One sequential attempt is the log ratio of the birth move the kernel
    makes from the same generator state, handed the row of uniforms the
    attempt draws first."""
    state, data, hp = make_state(n=6, p=5, seed=2, require_multi=True)
    i = next(i for i in range(data.n) if state.samples.cluster_size(i) > 1)
    bd = BirthDeathPass(data.y, state.mean_part.values_vector(),
                        state.var_part.values_vector(), state, hp)
    for seed in range(20):
        got = measure_birth_acceptance(state, data, hp, np.random.default_rng(seed), 1)
        rng = np.random.default_rng(seed)
        u = rng.random(data.p + 1)
        _, log_ratio = mh_birth_move(copy.deepcopy(state), i, rng, bd, u)
        assert got.tolist() == [log_ratio]


def test_birth_acceptance_draws_a_fresh_row_per_attempt(monkeypatch):
    """Attempts cycle over the eligible samples; a sample attempted again
    reads a fresh row of uniforms, so its two proposals seat differently."""
    p = 12
    y = np.random.default_rng(1).normal(0.0, 0.5, size=(2, p))
    state, data, hp = manual_state(y, sigma_sq=[0.2] * p, attr_prob=0.5)
    seats = []
    propose = BirthDeathPass.propose

    def recording(self, i, u, rng):
        mean, log_w = propose(self, i, u, rng)
        seats.append((i, mean.inner.labels.tolist()))
        return mean, log_w

    monkeypatch.setattr(BirthDeathPass, "propose", recording)
    measure_birth_acceptance(state, data, hp, np.random.default_rng(0), 3)
    assert [i for i, _ in seats] == [0, 1, 0]
    assert seats[0][1] != seats[2][1]
