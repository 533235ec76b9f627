import copy
import dataclasses
import math

import numpy as np
import pytest

from sparseclust.chain import ChainConfig, init_state
from sparseclust.clusters import BirthDeathPass, mh_birth_move
from sparseclust.diagnostics import (
    STATISTIC_NAMES,
    geweke_z_scores,
    marginal_conditional_samples,
    measure_birth_acceptance,
    successive_conditional_samples,
)
from sparseclust.model import default_hyperparams
from sparseclust.simulate import gen_example1

from conftest import informative_hp, make_state

GATE_SEEDS = (0, 1, 2, 3)
GATE_DRAWS = 4000
GATE_BOUND = 4.0


def test_joint_distribution_gate():
    """Getting-it-right test of the whole transition kernel (Geweke, JASA
    2004): statistics of independent prior draws must match those along the
    chain that alternates data given state with one full sweep. Per-seed
    z scores are pooled as sum(z) / sqrt(seeds), which is N(0, 1) under a
    correct kernel. The seeds and the bound were fixed before the first run;
    a failure is a kernel bug."""
    hp = informative_hp()
    pooled = dict.fromkeys(STATISTIC_NAMES, 0.0)
    for seed in GATE_SEEDS:
        rng = np.random.default_rng(seed)
        forward = marginal_conditional_samples(6, 3, hp, GATE_DRAWS, rng)
        successive = successive_conditional_samples(6, 3, hp, GATE_DRAWS, rng)
        for name, z in geweke_z_scores(forward, successive).items():
            pooled[name] += z / math.sqrt(len(GATE_SEEDS))
    bad = {name: z for name, z in pooled.items() if not abs(z) < GATE_BOUND}
    assert not bad, f"pooled z beyond {GATE_BOUND}: {bad} (all: {pooled})"


def test_sequential_proposal_beats_prior_proposal():
    """On ex1 with rho ~ Beta(2,2), births proposed sequentially from the
    data are accepted far more often than births drawn from the prior."""
    data, _truth = gen_example1(0)
    hp = dataclasses.replace(default_hyperparams(data), rho_a=2.0, rho_b=2.0)
    rng = np.random.default_rng(0)
    state = init_state(data, hp, ChainConfig(seed=0), rng)
    sequential = measure_birth_acceptance(state, data, hp, rng, 400, "sequential")
    prior = measure_birth_acceptance(state, data, hp, rng, 400, "prior")
    assert sequential > 0.0
    assert sequential >= 1000.0 * prior, (sequential, prior)


def test_birth_acceptance_rejects_bad_arguments():
    """Rejected before any draw is made."""
    state, data, hp = make_state(n=6, p=5, seed=2, require_multi=True)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for attempts, proposal in ((0, "sequential"), (-3, "prior"), (5, "posterior")):
        with pytest.raises(ValueError, match="attempts|proposal"):
            measure_birth_acceptance(state, data, hp, rng, attempts, proposal)
    assert rng.bit_generator.state == before


def test_birth_acceptance_scores_the_kernel_move():
    """One sequential attempt is the acceptance probability of the birth
    move the kernel makes from the same generator state."""
    state, data, hp = make_state(n=6, p=5, seed=2, require_multi=True)
    i = next(i for i in range(data.n) if state.samples.cluster_size(i) > 1)
    bd = BirthDeathPass(data.y, state.mean_part.values_vector(),
                        state.var_part.values_vector(), state, hp)
    for seed in range(20):
        got = measure_birth_acceptance(state, data, hp, np.random.default_rng(seed), 1)
        _, info = mh_birth_move(copy.deepcopy(state), data, hp, i, np.random.default_rng(seed), bd)
        assert got == min(1.0, math.exp(info["log_ratio"]))
